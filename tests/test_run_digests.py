"""Pinned run digests: speed work must leave every output byte unchanged.

Each digest is the SHA-256 of the canonical report JSON followed by the
endpoint bytes of one run on the analytic gaussian-bump field (sigma1 0.5).
The first ten were recorded with the brute-force nearest-anchor search (a
full token by anchor distance matrix), before the k-d tree owner map
replaced it, so equality here shows the replacement changed no number.  The
vanilla12 and 128x128 entries were recorded while the selector still drew
one bounded integer per pick and row gathers used fancy indexing; they pin
the one-read selector draw and the np.take gathers.  Recorded on x86-64
with numpy 2.4.  All thirteen also pin the switch to sparse steps that
update anchor rows only, with a lift only before each stage boundary, and
to the distance-transform owner map.
"""

import hashlib

import pytest

from jitflow.fields import GaussianFlowField, make_target_image
from jitflow.fileio import canonical_json, report_to_dict
from jitflow.sampler import run
from jitflow.schedule import preset_schedule

DIGESTS = {
    ("jit4x", 64, 0): "f96619c4e9c833c50119be00e68f09c60be6050b394d28d2418e613f171fcfc5",
    ("jit4x", 64, 1): "93e135fa4fe82555220d6e8c6e455c79cabd1893aeb8841b7ca9dcf16fecded8",
    ("jit4x", 64, 101): "4b892b6b8e6bc0d09d5e3f3a48771876df0d9d5bdedc708e6d2d0d663f448d49",
    ("jit4x", 64, 12345): "cc625b20fbbfddda47572b47715c34fdd5fe90fc093cf033b7852259021861e4",
    ("jit7x", 32, 0): "199faf1e489b6e300a0e7cc3dcceaae7847b40b8eea22fdf6d9f51b72f66cb7c",
    ("jit7x", 32, 1): "1629edc54defe57357a548c9ecbd17142e36d59400505c3145bb1d792c30126a",
    ("jit7x", 32, 101): "4efb59152820974cdbf91feffa42667d93b45454c927d86cedca37f1a5c7ef24",
    ("jit7x", 32, 12345): "d51086a117e29ba5a2595ce7bcd249d6084a9679da04f71eb0517311354a3910",
    ("jit4x", 48, 0): "10db7a3a15400996884bcaf113bc4e463b8a25f28a3e63d485e81f0a9d795090",
    ("jit4x", 48, 12345): "14c8ab9c3b955a813e14a907cb86fc5edac4498105cd6f27d1e906e788d241c3",
    ("vanilla12", 32, 0): "284b1f46776112ab99f891bc4843adea61c830d9cac4c2ec4a153a330a594a0d",
    ("vanilla12", 32, 101): "1993d0a272fef985893fae2805e449dfe64be314c86da0ae95114cfbdda5f03c",
    ("jit4x", 128, 0): "387c5fe77bf8bc2786f36f185fc9c93f55c0181b8b882198395d5c13729debf5",
}


@pytest.mark.parametrize("preset, side, seed", sorted(DIGESTS))
def test_run_digest_unchanged(preset, side, seed):
    shape = (side, side, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
    report = run(preset_schedule(preset), field, shape, seed)
    doc = canonical_json(report_to_dict(report)).encode("utf-8")
    digest = hashlib.sha256(doc + report.endpoint.data.tobytes()).hexdigest()
    assert digest == DIGESTS[(preset, side, seed)]

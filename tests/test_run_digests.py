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
to the distance-transform owner map.  The eleven staged digests were
re-recorded once when scipy took over the beta quantiles (betaincinv), the
blur (gaussian_filter) and the importance box means (uniform_filter): in
all thirteen runs the endpoint bytes and every transition's activated set
were first checked equal to those of the hand-rolled code, and only
steps[].t (by at most 2.0e-14) and the transition importance statistics
(by at most 6e-13 relative) moved.  The two vanilla12 digests did not
change.  The eleven staged digests were re-recorded once more when stage
transitions began seating new tokens on their own initial noise instead of
a fresh draw: every step before the first boundary and the first
transition's activated set and importance scores were first checked equal
to those of the previous code, and every seated target equal to dmf_target
fed the initial noise; the vanilla12 digests did not change.  All thirteen
also pin the switch to a state kept as the initial noise plus one array of
the active rows, with no full-state buffer and no write-backs: they passed
unedited.  The eleven staged digests were re-recorded once more when
transitions began waking the inactive tokens farthest from the anchors,
ties in ordered-dither order, instead of the most important ones: in all
eleven runs every step before the first boundary was first checked equal
to that of the previous code, and every seated target equal to dmf_target
fed the new ring; the two vanilla12 digests passed unedited.
"""

import hashlib

import pytest

from jitflow.fields import GaussianFlowField, make_target_image
from jitflow.fileio import canonical_json, report_to_dict
from jitflow.sampler import run
from jitflow.schedule import preset_schedule

DIGESTS = {
    ("jit4x", 64, 0): "68a02248bc616928d8e6b1fafbb8dd5e726b6c3df06d7d870bba08557eb119f4",
    ("jit4x", 64, 1): "6955d7b36a6d43a6d034ed58aca00e9b540b797c9dc2a2de0d2de11b4d226b43",
    ("jit4x", 64, 101): "78041f0c04b112dc141d76c2dce7da3fe835361789a5cdc3401b7fd1a02d7be8",
    ("jit4x", 64, 12345): "c4c24f87bfcd674325fbddb24f15a5c2df7e44dd0c5296b75f22b453c1effcea",
    ("jit7x", 32, 0): "c940ac45173211be65ed2c25aed7f24c1bbe4d893e376432ea21e2a7a7c1dda0",
    ("jit7x", 32, 1): "e047f8950a380b496ebbaf391c2dfa377634b981fe03db2cffc41f827139d28f",
    ("jit7x", 32, 101): "9489c3f2f18e259549e7c690286f2febeb006346c5a7338f186d428261e0adc7",
    ("jit7x", 32, 12345): "3900cf5cc244f574010273c10f21a09c08b10cfb9716266dc95365f02d3b66c6",
    ("jit4x", 48, 0): "02be044d02cfe540b2ce5856969195bcba46468061f29dbcfb5f8d17794e5061",
    ("jit4x", 48, 12345): "0ffda0621327ad719d89ef587959170429c58cdbd2ce1fa6499f090a4bb5fe73",
    ("vanilla12", 32, 0): "284b1f46776112ab99f891bc4843adea61c830d9cac4c2ec4a153a330a594a0d",
    ("vanilla12", 32, 101): "1993d0a272fef985893fae2805e449dfe64be314c86da0ae95114cfbdda5f03c",
    ("jit4x", 128, 0): "c06eaea180735940e2ebf24713f169f04acb3c877770a777cad5b45c2c16a301",
}


@pytest.mark.parametrize("preset, side, seed", sorted(DIGESTS))
def test_run_digest_unchanged(preset, side, seed):
    shape = (side, side, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
    report = run(preset_schedule(preset), field, shape, seed)
    doc = canonical_json(report_to_dict(report)).encode("utf-8")
    digest = hashlib.sha256(doc + report.endpoint.data.tobytes()).hexdigest()
    assert digest == DIGESTS[(preset, side, seed)]

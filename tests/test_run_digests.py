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
unedited.
"""

import hashlib

import pytest

from jitflow.fields import GaussianFlowField, make_target_image
from jitflow.fileio import canonical_json, report_to_dict
from jitflow.sampler import run
from jitflow.schedule import preset_schedule

DIGESTS = {
    ("jit4x", 64, 0): "49e3c1e344bd681ca1059d77a91bc314c0477b0f32d439fdda9245e21684f38f",
    ("jit4x", 64, 1): "9214df2a77d9ee6da5af78820eedb2ab2530d95b6a5c9f30dc31be1756fa5890",
    ("jit4x", 64, 101): "cdf425e3f6767c14a4487e1dfde36f82a6375e288e913e3678cb1c572d6c120e",
    ("jit4x", 64, 12345): "d0074539905abc0b3d956e503c411b571a4bd09f839c9299a53a3da3f35f6c7a",
    ("jit7x", 32, 0): "08297d8a54836ceee49c75a3b21fbe379f3c9225caec3ba1ddcc7add0bca6c1f",
    ("jit7x", 32, 1): "3209d77183d46c524f893e7064050fbfb550a7e78ecf896d4de0425284722cad",
    ("jit7x", 32, 101): "8275b769fd8c872de7fad8dc6b9608ad6c629236040a4eb2c2795983b668bcb2",
    ("jit7x", 32, 12345): "ac2d5ad4d2745dcd16c259deb33453f721b1fb89144fe7dd20571be94fa0a776",
    ("jit4x", 48, 0): "455b79352a5dcd5d3b0d3fc622516cad4bd52d046aaa2b8ca771e66a06677eb9",
    ("jit4x", 48, 12345): "6aee3147ddef6be1b22ee96154142ba46b966884977ed4b3d915f2d420442aea",
    ("vanilla12", 32, 0): "284b1f46776112ab99f891bc4843adea61c830d9cac4c2ec4a153a330a594a0d",
    ("vanilla12", 32, 101): "1993d0a272fef985893fae2805e449dfe64be314c86da0ae95114cfbdda5f03c",
    ("jit4x", 128, 0): "1c8c89f8d6c13227ff0553a9878865de45f66bd47ac11cdc59dadee72fe768e0",
}


@pytest.mark.parametrize("preset, side, seed", sorted(DIGESTS))
def test_run_digest_unchanged(preset, side, seed):
    shape = (side, side, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
    report = run(preset_schedule(preset), field, shape, seed)
    doc = canonical_json(report_to_dict(report)).encode("utf-8")
    digest = hashlib.sha256(doc + report.endpoint.data.tobytes()).hexdigest()
    assert digest == DIGESTS[(preset, side, seed)]

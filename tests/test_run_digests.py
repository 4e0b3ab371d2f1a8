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
fed the new ring; the two vanilla12 digests passed unedited.  The eleven
staged digests were re-recorded once more when the first anchor set stopped
drawing (boundary tokens first, then interior ones in ordered-dither order)
and runs began reading one cached token plan per (h, w, stage counts), with
each ring's clean prediction lifted by a sparse operator: the new engine
and the previous engine with only the new selector swapped in were first
checked byte-equal in all thirteen runs, and in jit4x at 128x128 (seed 7),
jit7x at 96x96 (seed 3) and jit4x at 33x33 (seed 5), endpoint, activated
sets and seated targets; the two vanilla12 digests passed unedited.
"""

import hashlib

import pytest

from jitflow.fields import GaussianFlowField, make_target_image
from jitflow.fileio import canonical_json, report_to_dict
from jitflow.sampler import run
from jitflow.schedule import preset_schedule

DIGESTS = {
    ("jit4x", 64, 0): "e2847d551fb39e63c7f966e4acbd5cd992a1e9973a33a9c1c665296a7f3ad496",
    ("jit4x", 64, 1): "27be9f54080fd595bc8071deb4bd5430769d356b244f4c4937c614179e270da8",
    ("jit4x", 64, 101): "a7bcb4452a0428e8003ee7dfe1d1d935eb94c408bafc469d438a454509bb9d8a",
    ("jit4x", 64, 12345): "3d105ab46a6ef013a00c81a5fc8d8135d9035499ea72791cedbaaba316106fee",
    ("jit7x", 32, 0): "d43ef5fddb3c8da4cb2c26ce7a04d709f752185ca9fb9263fac0163b80dd4c60",
    ("jit7x", 32, 1): "c195043f980ee619fec7f10f35bfa30065daea239fbe111fb07382eafeaa5b9f",
    ("jit7x", 32, 101): "6370bae1f5751f0070031ce940cbb795cf0181b28ea805e686a4a0b6e6cd5796",
    ("jit7x", 32, 12345): "3886e4eaca4748e3ff6f23a08ac6b9d95e457f23e0f46c4e9fb623bb902b8197",
    ("jit4x", 48, 0): "797283a792c3f750ab7c52cb5c3cb89e8208e7d726b8e8085f51d2b0d97d8cc5",
    ("jit4x", 48, 12345): "e0fb969fd250a44053315caaff9acde5ac9d2fac2357844a376d0cc2d155074b",
    ("vanilla12", 32, 0): "284b1f46776112ab99f891bc4843adea61c830d9cac4c2ec4a153a330a594a0d",
    ("vanilla12", 32, 101): "1993d0a272fef985893fae2805e449dfe64be314c86da0ae95114cfbdda5f03c",
    ("jit4x", 128, 0): "2e52718ba0b1961f2f8da5d1f8eb3cb48530cfa4f3f54b3a7d8b6efeb0436f13",
}


@pytest.mark.parametrize("preset, side, seed", sorted(DIGESTS))
def test_run_digest_unchanged(preset, side, seed):
    shape = (side, side, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
    report = run(preset_schedule(preset), field, shape, seed)
    doc = canonical_json(report_to_dict(report)).encode("utf-8")
    digest = hashlib.sha256(doc + report.endpoint.data.tobytes()).hexdigest()
    assert digest == DIGESTS[(preset, side, seed)]

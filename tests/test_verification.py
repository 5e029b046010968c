"""The oracle-equivalence sweeps: their fixed designs, and the refusal of
mistyped arguments."""
import hashlib

import pytest

from chowstab import blowup, verification


class TestCheckBlowupCase:
    CASE = ((1, -1, 0), ((0, 1),), 2)

    def test_a_valid_case_passes(self):
        assert verification.check_blowup_case(*self.CASE) is None

    # A float m once failed inside fractions, on the way into the geometry.
    @pytest.mark.parametrize("m", [0.5, 2.0, True, "2", None])
    def test_m_must_be_int(self, m):
        weights, points, _ = self.CASE
        with pytest.raises(TypeError, match=f"^m must be an int, got {m!r}$"):
            verification.check_blowup_case(weights, points, m)

    # Bad points were once refused only after a geometry was derived from
    # them, if at all: a float alpha failed inside fractions.
    @pytest.mark.parametrize("points, error, message", [
        (((0, 1.0),), TypeError, r"^points\[0\]\[1\] must be an int, got 1\.0$"),
        (((True, 1),), TypeError, r"^points\[0\]\[0\] must be an int, got True$"),
        (((0, 1, 1),), ValueError, r"^points\[0\] must be an \(axis, alpha\) pair"),
        (((5, 1),), ValueError, "^only the three coordinate points of the plane"),
        (((0, 1), (0, 1)), ValueError, "^blown points must be distinct$"),
        (((0, 0),), ValueError, "^multiplicities must be >= 1$"),
        (((0, -2),), ValueError, "^multiplicities must be >= 1$"),
        (((0, 2), (1, 1)), ValueError, r"^exactness regime requires m >= sum\(alpha\) = 3$"),
        ((), ValueError, "^at least one blown point is required$"),
    ], ids=["float-alpha", "bool-axis", "triple", "axis-5", "repeated-axis", "alpha-0",
            "alpha-negative", "m-below-sum", "no-point"])
    def test_points_refused_before_any_geometry(self, points, error, message):
        weights, _, m = self.CASE
        before = blowup._geometry_for.cache_info()
        with pytest.raises(error, match=message):
            verification.check_blowup_case(weights, points, m)
        assert blowup._geometry_for.cache_info() == before

    @pytest.mark.parametrize("weights, error, message", [
        ((1, 0, 0), ValueError, "^weight vector must have trace zero$"),
        ((1, -1), ValueError, "^weights must have three entries, got 2$"),
        ((1, -1.0, 0), TypeError, r"^weights\[1\] must be an int, got -1\.0$"),
    ], ids=["nonzero-trace", "two-entries", "float-weight"])
    def test_weights_refused_before_any_geometry(self, weights, error, message):
        _, points, m = self.CASE
        before = blowup._geometry_for.cache_info()
        with pytest.raises(error, match=message):
            verification.check_blowup_case(weights, points, m)
        assert blowup._geometry_for.cache_info() == before

    def test_points_of_any_sequence_kind(self):
        weights, _, m = self.CASE
        assert verification.check_blowup_case(weights, iter([[1, 1], [0, 1]]), 3) is None


# The bundle design is fixed: the core box, then PROJBUNDLE_SAMPLE_SIZE
# seeded samples; the sample size is no longer an argument.
class TestProjbundleDesign:
    CORE = 31_680
    # sha256 over the reprs of the whole stream, one per line, as the stream
    # stood when its sample size was an argument defaulting to 2000.
    DIGESTS = {
        0: "c0c232e58f45c27d35b59affa9bd3af781771fdc412b68cc38cb07ce469b163e",
        5755: "fb4e2e99ca64d6ffe994875258028d987757e9e68f6fa7b63cb3e665ed30ab4e",
    }

    @pytest.mark.parametrize("seed", [0, 5755])
    def test_stream_is_pinned(self, seed):
        digest = hashlib.sha256()
        for spec in verification.projbundle_specs(seed=seed):
            digest.update(repr(spec).encode() + b"\n")
        assert digest.hexdigest() == self.DIGESTS[seed]

    def test_core_box_then_the_seeded_samples(self):
        first, held_out = (list(verification.projbundle_specs(seed=seed)) for seed in (0, 5755))
        assert verification.PROJBUNDLE_SAMPLE_SIZE == 2000
        assert len(first) == len(held_out) == self.CORE + 2000
        core = first[:self.CORE]
        assert held_out[:self.CORE] == core and len(set(core)) == self.CORE
        assert all(spec.b_weight == 0 and all(abs(s.degree) <= 1 and abs(s.weight) <= 1
                                              for s in spec.summands) for spec in core)
        assert first[self.CORE:] != held_out[self.CORE:]

    def test_suite_checks_the_whole_design(self, monkeypatch):
        checked = []
        monkeypatch.setattr(verification, "check_projbundle_spec", checked.append)
        assert verification.run_projbundle_suite(seed=5755) == (self.CORE + 2000, [])
        assert checked == list(verification.projbundle_specs(seed=5755))

    @pytest.mark.parametrize("call", [
        lambda: verification.projbundle_specs(seed=0, sample_size=500),
        lambda: verification.run_projbundle_suite(sample_size=500),
    ], ids=["projbundle_specs", "run_projbundle_suite"])
    def test_sample_size_is_not_an_argument(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument 'sample_size'"):
            call()



# The checked range of k is fixed: kmax is no longer an argument.
class TestFixedKRange:
    def test_blowup_case_checks_k_up_to_blowup_kmax(self, monkeypatch):
        ks, oracle = [], verification.blowup.oracle_p2
        monkeypatch.setattr(verification.blowup, "oracle_p2",
                            lambda *args: ks.append(args[-1]) or oracle(*args))
        assert verification.check_blowup_case(*TestCheckBlowupCase.CASE) is None
        assert ks == list(range(1, verification.BLOWUP_KMAX + 1))

    def test_projbundle_spec_checks_k_up_to_projbundle_kmax(self, monkeypatch):
        ks, oracle = [], verification.projbundle.oracle
        monkeypatch.setattr(verification.projbundle, "oracle",
                            lambda spec, k: ks.append(k) or oracle(spec, k))
        spec = next(verification.projbundle_specs(seed=0))
        assert verification.check_projbundle_spec(spec) is None
        assert ks == list(range(1, verification.PROJBUNDLE_KMAX + 1))

    @pytest.mark.parametrize("call", [
        lambda: verification.check_blowup_case(*TestCheckBlowupCase.CASE, kmax=3),
        lambda: verification.run_blowup_suite(kmax=3),
        lambda: verification.check_projbundle_spec(
            next(verification.projbundle_specs(seed=0)), kmax=3),
        lambda: verification.run_projbundle_suite(kmax=3),
    ], ids=["check_blowup_case", "run_blowup_suite",
            "check_projbundle_spec", "run_projbundle_suite"])
    def test_kmax_is_not_an_argument(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument 'kmax'"):
            call()

"""The oracle-equivalence sweeps refuse mistyped and negative arguments."""
import pytest

from chowstab import verification


class TestCheckBlowupCase:
    CASE = ((1, -1, 0), ((0, 1),), 2)

    def test_a_valid_case_passes(self):
        assert verification.check_blowup_case(*self.CASE) is None
        assert verification.check_blowup_case(*self.CASE, kmax=3) is None

    # A float m once failed inside fractions, on the way into the geometry.
    @pytest.mark.parametrize("m", [0.5, 2.0, True, "2", None])
    def test_m_must_be_int(self, m):
        weights, points, _ = self.CASE
        with pytest.raises(TypeError, match=f"^m must be an int, got {m!r}$"):
            verification.check_blowup_case(weights, points, m)

    @pytest.mark.parametrize("kmax", [3.0, True, "3", None])
    def test_kmax_must_be_int(self, kmax):
        with pytest.raises(TypeError, match=f"^kmax must be an int, got {kmax!r}$"):
            verification.check_blowup_case(*self.CASE, kmax=kmax)


class TestRunProjbundleSuite:
    def test_empty_sample_runs_the_core_box(self, monkeypatch):
        checked = []
        monkeypatch.setattr(verification, "check_projbundle_spec",
                            lambda spec, kmax: checked.append(spec))
        core = list(verification.projbundle_specs(seed=0, sample_size=0))
        assert verification.run_projbundle_suite(seed=0, sample_size=0) == (len(core), [])
        assert checked == core

    # A negative sample size once ran, as if it were zero.
    @pytest.mark.parametrize("size", [-1, -2000])
    def test_sample_size_must_not_be_negative(self, size):
        with pytest.raises(ValueError, match=f"^sample_size must be >= 0, got {size}$"):
            verification.run_projbundle_suite(sample_size=size)

    @pytest.mark.parametrize("size", [10.0, True, "10", None])
    def test_sample_size_must_be_int(self, size):
        with pytest.raises(TypeError, match=f"^sample_size must be an int, got {size!r}$"):
            verification.run_projbundle_suite(sample_size=size)


# kmax <= 0 once ran and compared nothing past w(0): run_blowup_suite(kmax=0)
# reported every case checked and no mismatch.
@pytest.mark.parametrize("kmax", [0, -3])
class TestKmaxMustBePositive:
    def message(self, kmax):
        return f"^kmax must be >= 1, got {kmax}$"

    def test_check_blowup_case(self, kmax):
        with pytest.raises(ValueError, match=self.message(kmax)):
            verification.check_blowup_case(*TestCheckBlowupCase.CASE, kmax=kmax)

    def test_run_blowup_suite(self, kmax):
        with pytest.raises(ValueError, match=self.message(kmax)):
            verification.run_blowup_suite(kmax=kmax)

    def test_check_projbundle_spec(self, kmax):
        spec = next(verification.projbundle_specs(seed=0, sample_size=0))
        with pytest.raises(ValueError, match=self.message(kmax)):
            verification.check_projbundle_spec(spec, kmax=kmax)

    def test_run_projbundle_suite(self, kmax):
        with pytest.raises(ValueError, match=self.message(kmax)):
            verification.run_projbundle_suite(sample_size=0, kmax=kmax)

"""Command-line interface: configs, output stability, exit codes."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowstab
from chowstab import blowup, projbundle
from chowstab.cli import main
from chowstab.exactalg import parse_rational
from chowstab.p2lab import SEARCH_MAX_GRID_BOUND, SEARCH_MAX_SCALE_BOUND

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module, names):
    """Replace module.<name> by a counting wrapper; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, wrapper)
    return calls


# (golden, command, config, extra) of each JSON golden; the golden's name is its test id.
JSON_GOLDENS = [
    ("projbundle_split_degree_one", "projbundle", "projbundle_split_degree_one", ()),
    ("projbundle_split_degree_one_k1-6", "projbundle", "projbundle_split_degree_one",
     ("--k-range", "1:6")),
    ("blowup_p2_four_aligned", "blowup", "blowup_p2_four_aligned", ()),
    ("blowup_p2_three_points", "blowup", "blowup_p2_three_points", ()),
    ("loci_3pt_m5_alphas_2-1-1", "loci-3pt", None, ("--m", "5", "--alphas", "2,1,1")),
    ("search_unstable_grid2_scale3", "search-unstable", None, ("--grid", "2", "--scale", "3")),
    ("blowup_rational_phi", "blowup", "blowup_rational_phi", ()),
    ("search_unstable_grid4_scale1", "search-unstable", None, ("--grid", "4", "--scale", "1")),
    ("search_unstable_grid4_scale3", "search-unstable", None, ("--grid", "4", "--scale", "3")),
    ("search_unstable_grid3_scale8", "search-unstable", None, ("--grid", "3", "--scale", "8")),
    ("projbundle_three_summands_r2", "projbundle", "projbundle_three_summands_r2", ()),
]

# The searches pinned by the sha256 of their output, as (grid, scale).
# Grids 5 and 7 pin the search's reuse of its work across each orbit of
# line classes on bounds that no other golden covers.
DIGEST_SEARCHES = [(8, 8), (6, 2), (5, 3), (7, 1)]

DEMO_NAMES = sorted(path.name for path in DEMOS.glob("0*.py"))


def digest_path(grid, scale):
    return GOLDEN / f"search_unstable_grid{grid}_scale{scale}.sha256"


def demo_golden(demo):
    return GOLDEN / f"demo_{demo[:2]}.txt"


def test_every_golden_file_is_read():
    """Each file in tests/golden is compared by one of the tests below."""
    read = ({GOLDEN / f"{row[0]}.json" for row in JSON_GOLDENS}
            | {digest_path(grid, scale) for grid, scale in DIGEST_SEARCHES}
            | {demo_golden(demo) for demo in DEMO_NAMES})
    assert set(GOLDEN.iterdir()) == read


class TestGoldenOutput:
    """JSON output of the shipped configs, byte for byte as recorded in tests/golden."""

    @pytest.mark.parametrize("golden,command,config,extra", JSON_GOLDENS,
                             ids=[row[0] for row in JSON_GOLDENS])
    def test_matches_golden(self, capsys, golden, command, config, extra):
        config_args = ("--config", str(CONFIGS / f"{config}.json")) if config else ()
        code, out, err = run_cli(capsys, command, *config_args, *extra, "--json")
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / f"{golden}.json").read_bytes()

    def search_matches_its_digest(self, capsys, grid, scale):
        """search-unstable's output, pinned by its sha256 rather than itself."""
        code, out, err = run_cli(capsys, "search-unstable", "--grid", str(grid),
                                 "--scale", str(scale), "--json")
        assert (code, err) == (0, "")
        digest = digest_path(grid, scale).read_text().split()[0]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_search_at_the_guard_limit_matches_its_digest(self, capsys):
        # 11 080 candidates.
        assert (SEARCH_MAX_GRID_BOUND, SEARCH_MAX_SCALE_BOUND) == DIGEST_SEARCHES[0]
        self.search_matches_its_digest(capsys, *DIGEST_SEARCHES[0])

    def test_search_past_the_geometry_cache_matches_its_digest(self, capsys):
        # 782 candidates: grid 6 is the first whose primitive points, 391,
        # outnumber the geometry cache, so verification misses it.
        assert blowup.GEOMETRY_CACHE_SIZE < 391
        self.search_matches_its_digest(capsys, *DIGEST_SEARCHES[1])

    @pytest.mark.parametrize("grid, scale", DIGEST_SEARCHES[2:],
                             ids=[f"grid{g}_scale{s}" for g, s in DIGEST_SEARCHES[2:]])
    def test_search_on_an_odd_grid_matches_its_digest(self, capsys, grid, scale):
        # 540 and 765 candidates.
        self.search_matches_its_digest(capsys, grid, scale)


class TestDerivedOncePerSpec:
    def test_blowup_builds_chi_and_w_once(self, monkeypatch, capsys):
        # chi~ and the w~ columns are derived per geometry: start from a cold cache.
        calls = count_calls(monkeypatch, blowup, ("_scaled_chi_tilde", "_w_tilde_columns"))
        blowup._geometry_for.cache_clear()
        try:
            code, _, _ = run_cli(capsys, "blowup", "--config",
                                 str(CONFIGS / "blowup_p2_four_aligned.json"), "--json")
        finally:
            blowup._geometry_for.cache_clear()
        assert code == 0
        assert calls == {"_scaled_chi_tilde": 1, "_w_tilde_columns": 1}

    def test_projbundle_builds_fiber_rank_once(self, monkeypatch, capsys):
        # One derivation of the spec's numbers, which forms the fiber rank once.
        calls = count_calls(monkeypatch, projbundle, ("_derive", "_fiber_rank_numerators"))
        code, _, _ = run_cli(capsys, "projbundle",
                             "--config", str(CONFIGS / "projbundle_split_degree_one.json"),
                             "--k-range", "1:6", "--json")
        assert code == 0
        assert calls == {"_derive": 1, "_fiber_rank_numerators": 1}


class TestProjbundle:
    def test_worked_spec_json(self, capsys):
        code, out, _ = run_cli(capsys, "projbundle",
                               "--config", str(CONFIGS / "projbundle_split_degree_one.json"),
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["futaki"] == {"F_1": "4/27", "F_2": "4/27"}
        assert payload["classification"] == "unstable_relative"
        assert payload["ample_necessary"] is True

    def test_table_with_k_range(self, capsys):
        code, out, _ = run_cli(capsys, "projbundle",
                               "--config", str(CONFIGS / "projbundle_split_degree_one.json"),
                               "--k-range", "1:3")
        assert code == 0
        assert "k=2:" in out and "F_1 = 4/27" in out

    def test_json_byte_stability(self, capsys):
        args = ("projbundle", "--config",
                str(CONFIGS / "projbundle_split_degree_one.json"), "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_rationals_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "projbundle",
                            "--config", str(CONFIGS / "projbundle_split_degree_one.json"),
                            "--json")
        payload = json.loads(out)
        for value in payload["futaki"].values():
            assert str(parse_rational(value)) == value
        for section in (payload["euler_poly"], payload["weight_poly"],
                        payload["chow"]["num"], payload["chow"]["den"]):
            for value in section:
                assert str(parse_rational(value)) == value

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "projbundle", "--config", "/nonexistent.json")
        assert code == 1 and "cannot read" in err

    def test_bad_config_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"genus": 2, "summands": [{"rank": 1}]}))
        code, _, err = run_cli(capsys, "projbundle", "--config", str(bad))
        assert code == 1 and "degree" in err

    def test_float_in_config_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "base": {"n": 2, "a": [0.5, 1.5, 1], "polystable": True},
            "m": 3,
            "points": [{"alpha": 1, "phi": "0", "lambda": 0}],
        }))
        code, _, err = run_cli(capsys, "blowup", "--config", str(bad))
        assert code == 1 and "p/q" in err

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_stable_flag_must_be_json_bool(self, tmp_path, capsys, value):
        config = json.loads((CONFIGS / "projbundle_split_degree_one.json").read_text())
        config["summands"][1]["stable"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "projbundle", "--config", str(bad))
        assert code == 1 and out == ""
        assert "summands[1].stable" in err

    def test_stable_flag_false_accepted(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "projbundle_split_degree_one.json").read_text())
        for entry in config["summands"]:
            entry["stable"] = False
        good = tmp_path / "good.json"
        good.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "projbundle", "--config", str(good), "--json")
        assert code == 0 and json.loads(out)["classification"] == "unstable_relative"

    def test_approx_refused_in_json_mode(self, capsys):
        code, _, err = run_cli(capsys, "projbundle",
                               "--config", str(CONFIGS / "projbundle_split_degree_one.json"),
                               "--json", "--approx")
        assert code == 1 and "exact" in err


def _edited(config: str, edit):
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    edit(payload)
    return payload


class TestMalformedShapes:
    """A number, list or string where the config needs an object is an input error."""

    @pytest.mark.parametrize("command,payload,context", [
        ("projbundle", 5, "projbundle config"),
        ("projbundle", "summands", "projbundle config"),
        ("projbundle", _edited("projbundle_split_degree_one",
                               lambda c: c.update(B=[1])), "B"),
        ("projbundle", _edited("projbundle_split_degree_one",
                               lambda c: c["summands"].__setitem__(0, 3)), "summands[0]"),
        ("blowup", 5, "blowup config"),
        ("blowup", _edited("blowup_p2_four_aligned", lambda c: c.update(base=5)), "base"),
        ("blowup", _edited("blowup_p2_four_aligned",
                           lambda c: c["points"].__setitem__(1, 7)), "points[1]"),
    ])
    def test_refused_as_input_error(self, tmp_path, capsys, command, payload, context):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, "--config", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {context}: expected a JSON object")
        assert "Traceback" not in err


class TestBlowup:
    def test_aligned_four_points(self, capsys):
        code, out, _ = run_cli(capsys, "blowup",
                               "--config", str(CONFIGS / "blowup_p2_four_aligned.json"),
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["futaki"] == {"F_1": "-1/5", "F_2": "-1/25"}
        assert payload["D"] == "5/9"
        assert payload["b_top"] == "0"

    def test_degenerate_volume_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "degenerate.json"
        bad.write_text(json.dumps({
            "base": {"n": 2, "a": ["1/2", "3/2", "1"], "polystable": True},
            "m": 1,
            "points": [{"alpha": 1, "phi": "0", "lambda": 0}],
        }))
        code, _, err = run_cli(capsys, "blowup", "--config", str(bad))
        assert code == 1 and "exceptional volume" in err

    def test_base_that_is_no_hilbert_polynomial_is_input_error(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "blowup_p2_four_aligned.json").read_text())
        config["base"]["a"] = ["1/3", "1/5", "2/7"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "blowup", "--config", str(bad))
        assert (code, out) == (1, "")
        assert err == "error: the Hilbert polynomial must be integer-valued: chi(0) = 2/7\n"

    @pytest.mark.parametrize("value", ["no", "true", 0, 1, None])
    def test_polystable_flag_must_be_json_bool(self, tmp_path, capsys, value):
        config = json.loads((CONFIGS / "blowup_p2_four_aligned.json").read_text())
        config["base"]["polystable"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "blowup", "--config", str(bad))
        assert code == 1 and out == ""
        assert "base.polystable" in err

    def test_forced_cross_check_failure_exits_2(self, monkeypatch, capsys):
        original = blowup._Geometry._point_sums

        def skewed(self, action):          # every point-sum F_l one unit off
            sums, den = original(self, action)
            return [total + den for total in sums], den

        monkeypatch.setattr(blowup._Geometry, "_point_sums", skewed)
        code, out, err = run_cli(capsys, "blowup",
                                 "--config", str(CONFIGS / "blowup_p2_four_aligned.json"))
        assert code == 2 and out == ""
        assert "cross-check failure" in err and "point-sum" in err


class TestSearchCrossCheck:
    def test_forced_verification_failure_exits_2(self, monkeypatch, capsys):
        original = blowup._Geometry._point_sums

        def skewed(self, action):          # every point-sum numerator one unit off
            sums, den = original(self, action)
            return [total + 1 for total in sums], den

        monkeypatch.setattr(blowup._Geometry, "_point_sums", skewed)
        code, out, err = run_cli(capsys, "search-unstable", "--grid", "2", "--scale", "1")
        assert code == 2 and out == ""
        assert "cross-check failure" in err and "point-sum" in err and "m = 131" in err


class TestLoci:
    @pytest.mark.parametrize("m,alphas,expect", [
        (5, "1,1,1", (True, True)),
        (4, "2,1,1", (True, True)),
        (5, "2,1,1", (False, False)),
    ])
    def test_examples(self, capsys, m, alphas, expect):
        code, out, _ = run_cli(capsys, "loci-3pt", "--m", str(m),
                               "--alphas", alphas, "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["F1_zero"], payload["F2_zero"]) == expect

    def test_non_ample_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "loci-3pt", "--m", "2", "--alphas", "1,1,1")
        assert code == 1 and "ample" in err


class TestSearch:
    def test_first_candidate(self, capsys):
        code, out, _ = run_cli(capsys, "search-unstable", "--grid", "2",
                               "--scale", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        row = payload["candidates"][0]
        assert row == {"m": 131, "alphas": [75, 14, 14, 14], "psi1": "0",
                       "psi2": "59976", "ample": True, "verified": True}

    def test_empty_result_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "search-unstable", "--grid", "1",
                               "--scale", "1", "--json")
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_grid_guard_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "search-unstable", "--grid",
                               str(SEARCH_MAX_GRID_BOUND + 1), "--scale", "1")
        assert code == 1 and "search guard" in err

    def test_scale_guard_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "search-unstable", "--grid", "2",
                                 "--scale", str(SEARCH_MAX_SCALE_BOUND + 1))
        assert (code, out) == (1, "") and "scale_bound" in err


class TestOracleCheck:
    def test_blowup_suite_quick(self, capsys, monkeypatch):
        # keep the CLI path fast: shrink the sweep through its module knobs
        from chowstab import verification

        def small_suite():
            count, mismatches = 0, []
            for weights, points, m in list(verification.blowup_cases())[:40]:
                count += 1
                bad = verification.check_blowup_case(weights, points, m)
                if bad is not None:
                    mismatches.append(bad)
            return count, mismatches

        monkeypatch.setattr(verification, "run_blowup_suite", small_suite)
        code, out, _ = run_cli(capsys, "oracle-check", "--suite", "blowup", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatches"] == 0 and payload["specs"] == 40

    def test_seed_refused_for_the_exhaustive_blowup_suite(self, capsys, monkeypatch):
        from chowstab import verification

        def no_sweep():
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(verification, "run_blowup_suite", no_sweep)
        code, out, err = run_cli(capsys, "oracle-check", "--suite", "blowup", "--seed", "3")
        assert (code, out, err) == (1, "", "error: --seed applies only to --suite projbundle\n")


class TestProcessEntry:
    def test_console_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chowstab.cli", "loci-3pt",
             "--m", "5", "--alphas", "1,1,1", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["F1_zero"] is True


class TestDemos:
    """Each demo's standard output, byte for byte as recorded in tests/golden."""

    @pytest.mark.parametrize("demo", DEMO_NAMES)
    def test_stdout_matches_golden(self, demo):
        # The demo imports the chowstab these tests import, installed or not.
        src = str(Path(chowstab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == demo_golden(demo).read_bytes()

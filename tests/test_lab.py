import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udlab import cli, lab
from udlab import discrepancy as dc
from udlab import sequences as sq
from udlab import weyl as wy
from udlab.numerics import derive_seed

from conftest import stepwise_grid


def small_config(**overrides):
    base = dict(kind="curve-product", functions=["x", "x^2"],
                sequences=["identity", "identity"], x_interval=(0.05, 0.95),
                x_samples=4, seed=7, n_grid="pow2:6..9", frequency_bound=2,
                discrepancy_method="grid", grid_m=128,
                dstar_final_max=0.2, label="probe")
    base.update(overrides)
    return lab.ExperimentConfig(**base)


class TestGridAndGeneratorSpecs:
    def test_grid_forms(self):
        assert lab.parse_grid("pow2:3..5") == [8, 16, 32]
        assert lab.parse_grid("4,2,8,8") == [2, 4, 8]
        assert lab.parse_grid("linear:10:30:3") == [10, 20, 30]
        sub = lab.parse_grid("sublacunary:0.5:100")
        assert sub[0] == 3 and sub[-1] == 100
        assert all(b > a for a, b in zip(sub, sub[1:]))
        assert lab.parse_grid("sublacunary:0.5:2") == [2]  # ends at NMAX below the first N_r
        for bad in ["pow2:5..3", "linear:1:10:0", "0,4,8", "pow2:-1..3"]:
            with pytest.raises(ValueError, match=f"grid '{re.escape(bad)}' must give"):
                lab.parse_grid(bad)
        # malformed text used to surface as an unpacking or int() error
        for bad in ["pow2:8", "pow2:a..b", "linear:1:2", "1,x", "sublacunary:0.5:inf",
                    "sublacunary:1:100"]:  # EPS = 1 used to search for r forever
            with pytest.raises(ValueError, match=f"grid '{re.escape(bad)}' is not one of"):
                lab.parse_grid(bad)

    @pytest.mark.parametrize("spec, message", [
        ("sublacunary:0.99:1000000", "more than 2\\*\\*26 steps r"),
        ("sublacunary:0.5:100000000", "refusing to materialize 100000000 indices"),
        (f"pow2:0..{10 ** 12}", "refusing to materialize"),
        ("pow2:20..27", f"refusing to materialize {2 ** 27} indices"),
        ("10,100000000", "refusing to materialize 100000000 indices"),
        ("linear:1:100000000:3", "refusing to materialize 100000000 indices"),
    ])
    def test_grid_past_cap_is_refused_before_it_is_built(self, spec, message):
        # the first used to search r one step at a time for about 13.8^100
        # steps, the third to build 2^k for every k up to 10^12
        with pytest.raises(ValueError, match=message):
            lab.parse_grid(spec)
        assert lab.parse_grid("pow2:20..26")[-1] == 2 ** 26

    def test_grid_length_cap(self):
        # sublacunary:0.82:60000000 used to take about 9M steps to build
        # 7,976,831 entries; the walk stops one entry past the cap
        for spec, length in [("sublacunary:0.82:60000000", 65537),
                             ("linear:1:10:100000000", 100000000),
                             ("linear:1:65537:65537", 65537),
                             (",".join(map(str, range(1, 65538))), 65537)]:
            with pytest.raises(ValueError, match=f"has up to {length} entries, more than"
                               f" the cap of {lab.GRID_LENGTH_CAP}"):
                lab.parse_grid(spec)
        assert len(lab.parse_grid("linear:1:65536:65536")) == lab.GRID_LENGTH_CAP
        assert len(lab.parse_grid("sublacunary:0.7:60000000")) == 14964
        # the cap counts entries; the 66,615 steps r here used to count
        assert len(lab.parse_grid("sublacunary:0.78:100000")) == 52163

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3, 0.5, 0.7, 0.8, 0.85, 0.9, 0.92, 0.95])
    def test_sublacunary_grid_equals_stepwise_search(self, eps):
        for top in [1, 2, 3, 4, 10, 100, 1000, 20000, 10 ** 6, 6 * 10 ** 7]:
            if math.log(max(top, 2)) ** (1.0 / (1.0 - eps)) < 2e5:  # a short search
                assert lab.parse_grid(f"sublacunary:{eps}:{top}") == stepwise_grid(eps, top)

    @pytest.mark.parametrize("spec, entries", [("sublacunary:0.9:300", range(3, 301)),
                                               ("sublacunary:0.92:60", range(3, 61))])
    def test_sparse_sublacunary_grid_takes_few_steps_per_entry(self, spec, entries,
                                                                monkeypatch):
        # the stepwise search and build, about 3.6e7 and 4.5e7 steps r here,
        # took about 30 s each and gave these grids; the walk takes 3 per entry
        class CountingMath:
            calls = 0

            def exp(self, x):
                CountingMath.calls += 1
                return math.exp(x)

            def __getattr__(self, name):
                return getattr(math, name)

        monkeypatch.setattr(wy, "math", CountingMath())
        assert lab.parse_grid(spec) == list(entries)
        assert CountingMath.calls <= 4 * len(entries)

    def test_generator_spec(self):
        gen = lab.parse_generator("x=0.3; prod:identity|x; prod:identity|x^2")
        assert gen.dim == 2
        pts = gen.fracs(np.arange(1, 5))
        assert pts.shape == (4, 2)
        assert pts[0, 0] == pytest.approx(0.3)
        assert pts[0, 1] == pytest.approx(0.09)

    def test_tower_spec(self):
        gen = lab.parse_generator("x=1.5; tower:x|identity")
        pts = gen.fracs(np.arange(1, 4))
        assert pts[:, 0] == pytest.approx([0.5, 0.25, 0.375])

    def test_spec_errors(self):
        with pytest.raises(ValueError):
            lab.parse_generator("prod:identity|x")  # missing x=
        with pytest.raises(ValueError):
            lab.parse_generator("x=1; frob:identity|x")
        with pytest.raises(ValueError, match=r"'prod:identity' is not KIND:LEFT\|RIGHT"):
            lab.parse_generator("x=0.3; prod:identity")

    def test_index_family_spec(self):
        assert sq.parse_index_family("prefixes") == sq.prefixes()
        assert sq.parse_index_family("geometric:rho=2") == sq.geometric(2.0)
        assert sq.parse_index_family("strided:c=3") == sq.strided(3)
        for bad in ["geometric:", "geometric:rho", "geometric:rh=2", "strided:c=2.5",
                    "strided:c=3,rho=2", "prefixes:c=1", "lacunary:rho=2"]:
            with pytest.raises(ValueError):
                sq.parse_index_family(bad)


class TestConfig:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            lab.ExperimentConfig(kind="nope")
        with pytest.raises(ValueError):
            lab.ExperimentConfig(kind="curve-product", functions=["x"],
                                 sequences=[])
        with pytest.raises(ValueError):
            lab.ExperimentConfig(kind="power-tower-pair", tower_base="x",
                                 tower_sequences=["identity"])
        with pytest.raises(ValueError, match="may not set x="):
            lab.ExperimentConfig(kind="custom", coordinates=["x=0.5", "prod:identity|x"])
        with pytest.raises(ValueError, match="custom config has no coordinates"):
            lab.ExperimentConfig(kind="custom")

    def test_from_dict_refuses_unknown_and_missing_keys(self):
        data = small_config().to_dict()
        with pytest.raises(ValueError, match="unknown experiment config keys: x_sample"):
            lab.ExperimentConfig.from_dict({**data, "x_sample": 3})
        del data["kind"]
        with pytest.raises(ValueError, match="needs a 'kind'"):
            lab.ExperimentConfig.from_dict(data)
        with pytest.raises(ValueError):
            lab.ExperimentConfig.from_dict([data])

    def test_integral_floats_read_as_ints(self):
        # frequency_bound 2.0 used to load, then fail every sample
        config = small_config(x_samples=4.0, frequency_bound=2.0, grid_m=128.0)
        assert config == small_config()
        assert all(type(v) is int for v in (config.x_samples, config.frequency_bound,
                                            config.grid_m))
        got, want = lab.run_experiment(config), lab.run_experiment(small_config())
        assert [s.weyl_max for s in got.samples] == [s.weyl_max for s in want.samples]
        assert (got.dstar_median, got.verdict) == (want.dstar_median, want.verdict)

    def test_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        again = lab.ExperimentConfig.from_json_file(str(path))
        assert again == config


class TestSampleSeeding:
    def test_sample_positions_are_index_local(self):
        c5 = small_config(x_samples=5)
        c3 = small_config(x_samples=3)
        xs5 = [lab.sample_x(c5, i) for i in range(3)]
        xs3 = [lab.sample_x(c3, i) for i in range(3)]
        assert xs5 == xs3  # dropping samples never shifts earlier streams

    def test_seed_changes_positions(self):
        a = lab.sample_x(small_config(seed=1), 0)
        b = lab.sample_x(small_config(seed=2), 0)
        assert a != b

    def test_integral_float_seed_reads_as_int(self):
        # the seed is hashed as str(seed): 1.0 drew x = 0.0856 where 1 drew 0.3350
        config = small_config(seed=1.0)
        assert config.seed == 1 and type(config.seed) is int
        assert [lab.sample_x(config, i) for i in range(4)] == \
            [lab.sample_x(small_config(seed=1), i) for i in range(4)]

    def test_derive_seed_stable(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)
        assert derive_seed(5, 3) != derive_seed(5, 4)


class TestRunExperiment:
    def test_curve_product_runs_and_passes(self):
        report = lab.run_experiment(small_config())
        assert report.verdict == "pass"
        assert report.pass_fraction == 1.0
        assert len(report.samples) == 4
        assert not report.partial
        assert report.grid == [64, 128, 256, 512]
        assert len(report.dstar_median) == 4

    def test_threshold_verdict_is_pure(self):
        report = lab.run_experiment(small_config())
        assert lab._threshold_verdict(report.config, report.samples,
                                      report.dstar_median)[1] == report.verdict

    def test_tight_threshold_fails(self):
        # exact 2-d D* has bound 0; on the 128 lattice (bound 2/128) this
        # limit is refused at load
        report = lab.run_experiment(small_config(discrepancy_method="exact", grid_m=None,
                                                 dstar_final_max=1e-6))
        assert report.verdict == "fail"
        assert len(report.exceptional) > 0

    def test_lattice_verdict_adds_its_bound(self):
        # (n x, n x^2) at x = 0.3, N = 4096: lattice D* 0.0938 at m = 32
        # (bound 0.0625), exact 0.1060. The lattice value alone used to
        # pass the 0.1 limit; value + bound does not.
        config = small_config(x_interval=(0.3, 0.3 + 1e-12), x_samples=2, n_grid="4096",
                              grid_m=32, dstar_final_max=0.1, frequency_bound=1)
        report = lab.run_experiment(config)
        for s in report.samples:
            points = lab.build_generator(config, s.x).fracs(np.arange(1, 4097))
            exact, _ = dc.star_discrepancy_kd(points, "exact")
            assert s.discrepancy.values[-1] <= 0.1 < exact
            assert s.discrepancy.error_bounds[-1] == 2 / 32
            assert s.passed is False
        assert report.pass_fraction == 0.0 and report.verdict == "fail"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 4096), st.sampled_from([8, 16, 32, 64, 128, 256]),
           st.floats(0.25, 4.0), st.floats(-0.5, 0.5), st.integers(0, 2 ** 32))
    def test_lattice_pass_implies_exact_pass(self, n, m, power, offset, seed):
        # points u^power cluster toward a corner (power > 1) or away from
        # it; the limit lies within half a bound of value + bound, on either
        # side, so most draws pass on the lattice and some fail
        points = np.random.default_rng(seed).random((n, 2)) ** power
        lattice, bound = dc.star_discrepancy_kd(points, "grid", m)
        exact, _ = dc.star_discrepancy_kd(points, "exact")
        limit = lattice + bound * (1.0 + offset)
        assert exact <= limit or not lab._passes(lattice, bound, limit)

    def test_diagonal_counterexample_kind(self):
        config = lab.ExperimentConfig(kind="diagonal-counterexample",
                                      x_samples=3, seed=5, n_grid="pow2:5..7",
                                      frequency_bound=2, label="diag")
        report = lab.run_experiment(config)
        for s in report.samples:
            assert all(m == 1.0 for m in s.weyl_max)

    def test_worker_counts_agree(self):
        # the tower config runs big-integer fixed point in every worker
        tower = lab.ExperimentConfig(
            kind="power-tower-curve", tower_base="1+x",
            tower_sequences=["identity"], functions=["x"],
            sequences=["identity"], x_interval=(0.2, 0.8), x_samples=6,
            seed=5, n_grid="pow2:6..9", frequency_bound=1,
            discrepancy_method="grid", grid_m=64)
        for config in (small_config(), tower):
            r1 = lab.run_experiment(config, workers=1)
            r2 = lab.run_experiment(config, workers=3)
            assert len(r1.samples) == len(r2.samples)
            for a, b in zip(r1.samples, r2.samples):
                assert a.x == b.x
                assert a.discrepancy.values == b.discrepancy.values
                assert a.weyl_max == b.weyl_max

    def test_each_sample_generates_its_points_once(self, monkeypatch):
        calls = []
        build = lab.build_generator

        def counting_build(config, x):
            gen = build(config, x)
            fracs = gen.fracs
            gen.fracs = lambda indices: calls.append(len(indices)) or fracs(indices)
            return gen

        monkeypatch.setattr(lab, "build_generator", counting_build)
        report = lab.run_experiment(small_config())
        assert calls == [512] * 4
        assert report.verdict == "pass"

    def test_power_tower_pair_exploratory(self):
        config = lab.ExperimentConfig(
            kind="power-tower-pair", tower_base="x",
            tower_sequences=["identity", "affine:alpha=2,beta=0"],
            x_interval=(1.1, 1.9), x_samples=2, seed=3,
            n_grid="pow2:5..8", frequency_bound=1, label="pair")
        report = lab.run_experiment(config)
        assert report.verdict is None  # no threshold configured: exploratory
        assert report.dstar_median[-1] < 0.5

    def test_sample_errors_attach_and_run_continues(self):
        # tower base g(x) = x dips below 1 for some samples on (0.5, 1.5):
        # those samples record the error, the rest still produce reports
        config = lab.ExperimentConfig(
            kind="power-tower-pair", tower_base="x",
            tower_sequences=["identity", "affine:alpha=2,beta=0"],
            x_interval=(0.5, 1.5), x_samples=8, seed=11,
            n_grid="pow2:5..7", frequency_bound=1, label="partial")
        report = lab.run_experiment(config)
        failed = [s for s in report.samples if s.error is not None]
        good = [s for s in report.samples if s.error is None]
        assert failed and good
        assert report.partial
        assert all("exceed 1" in s.error for s in failed)
        assert all(s.index in report.exceptional for s in failed)
        assert all(s.discrepancy is not None for s in good)


class TestEmission:
    def test_csv_byte_stability(self, tmp_path):
        config = small_config()
        paths = []
        for tag in ("a", "b"):
            report = lab.run_experiment(config)
            p = tmp_path / f"{tag}.csv"
            lab.emit_csv(report, str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_report_header_only(self, tmp_path):
        config = small_config(dstar_final_max=None)
        report = lab.run_experiment(config)
        report.samples = []
        p = tmp_path / "empty.csv"
        lab.emit_csv(report, str(p))
        assert p.read_text() == "sample,x,N,dstar,err_bound,method,flags\n"

    def test_svg_structure(self, tmp_path):
        report = lab.run_experiment(small_config())
        p = tmp_path / "plot.svg"
        lab.emit_svg(report, str(p))
        text = p.read_text()
        assert text.count('class="sample"') == 4
        assert text.count('class="median"') == 1
        assert ">N</text>" in text and ">D*</text>" in text

    def test_svg_byte_stability(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            report = lab.run_experiment(small_config())
            p = tmp_path / f"{tag}.svg"
            lab.emit_svg(report, str(p))
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_io_error_carries_path(self):
        report = lab.run_experiment(small_config())
        with pytest.raises(OSError) as info:
            lab.emit_csv(report, "/nonexistent-dir/x.csv")
        assert "/nonexistent-dir/x.csv" in str(info.value)

    def test_golden_one_dimensional_csv(self, tmp_path):
        # frozen fixture; every dstar entry re-derived here from the exact
        # sorted formula on independently generated points
        from udlab.discrepancy import star_discrepancy_1d

        config = lab.ExperimentConfig(
            kind="custom", coordinates=["prod:identity|x"],
            x_interval=(0.05, 0.95), x_samples=2, seed=613,
            n_grid="pow2:7..10", frequency_bound=2,
            discrepancy_method="auto", label="golden-1d")
        report = lab.run_experiment(config)
        p = tmp_path / "golden.csv"
        lab.emit_csv(report, str(p))
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "golden_1d_dstar.csv")
        assert p.read_bytes() == open(fixture, "rb").read()
        from udlab.numerics import frac_product
        for line in p.read_text().splitlines()[1:]:
            _, x, N, dstar = line.split(",")[:4]
            # frac(n*x) to full double precision (a plain (n*x) % 1 is off
            # by a few ulps), then the independent sorted formula
            pts = frac_product(np.arange(1, int(N) + 1, dtype=float), float(x))
            assert float(dstar) == star_discrepancy_1d(pts)


class TestCli:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_growth_exit_codes(self, capsys):
        assert cli.main(["growth", "--seq", "identity", "--eps", "1",
                         "--g", "0.5", "--N", "100"]) == 0
        assert cli.main(["growth", "--seq", "sqrtres", "--eps", "0.1",
                         "--g", "0.5", "--N", "100"]) == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["scatter", "--delta", "1"])  # missing required args
        assert info.value.code == 2
        assert cli.main(["scatter", "--seq", "wat", "--delta", "1",
                         "--grid", "pow2:3..6"]) == 2

    @staticmethod
    def assert_usage_error(argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return err[0]

    @pytest.mark.parametrize("argv", [
        ["scatter", "--seq", "power:", "--delta", "1", "--grid", "pow2:3..6"],
        ["scatter", "--seq", "affine:alpah=2", "--delta", "1", "--grid", "pow2:3..6"],
        ["weylsum", "--gen", "x=0.3; prod:identity|x", "--v", "1",
         "--grid", "pow2:2..4", "--sets", "geometric:"],
        ["weylsum", "--gen", "x=0.3; prod:identity|x; prod:identity|x^2", "--v", "1,-1",
         "--grid", "sublacunary:0.5:20000", "--sets", "geometric:rho=2"],
        ["scatter", "--seq", "identity", "--delta", "1", "--grid", "pow2:8"],
        ["oscdecay", "--f", "x", "--interval", "1,2", "--radii", "geom:2:64", "--dirs", "1"],
    ], ids=["missing-param", "misspelled-param", "missing-set-param", "geometric-overflow",
            "malformed-grid", "malformed-radii"])
    def test_malformed_spec_exits_2(self, argv, capsys):
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["oscdecay", "--f", "x", "--interval", "1", "--radii", "halfpow2:2..7", "--dirs", "1"],
         "error: --interval '1' is not LO,HI"),
        (["oscdecay", "--f", "x", "--interval", "1,2", "--radii", "geom:2:64", "--dirs", "1"],
         "error: --radii 'geom:2:64' is not one of geom:LO:HI:COUNT, halfpow2:A..B or a comma"
         " list of numbers"),
        (["weylsum", "--gen", "x=0.3; prod:identity|x", "--v", "1,x", "--grid", "pow2:2..4"],
         "error: --v '1,x' is not a comma list of integers"),
    ], ids=["interval", "radii", "v"])
    def test_malformed_list_names_option_and_text(self, argv, message, capsys):
        # --interval 1 used to print an unpacking error, --v 1,x an int() error
        assert self.assert_usage_error(argv, capsys) == message

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(x_sample=3),
        lambda c: c.pop("kind"),
        lambda c: c.update(functions=["x", "x^"]),
        lambda c: c.update(sequences=["identity", "affine:alpah=2"]),
        lambda c: c.update(n_grid="pow2:5..3"),
        lambda c: c.update(n_grid="0,8,16"),
        lambda c: c.update(x_interval=[0, float("inf")]),
        lambda c: c.update(x_interval=[float("nan"), 1]),
    ], ids=["unknown-key", "missing-key", "bad-function", "bad-sequence", "empty-grid",
            "grid-with-0", "infinite-x-interval", "nan-x-interval"])
    def test_malformed_config_exits_2(self, edit, tmp_path, capsys):
        config = small_config().to_dict()
        edit(config)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        self.assert_usage_error(["experiment", "--config", str(cfg_path),
                                 "--out", str(tmp_path)], capsys)
        assert os.listdir(tmp_path) == ["cfg.json"]  # refused before any output

    @pytest.mark.parametrize("change, message", [
        ({"n_grid": "10,100000000"}, "refusing to materialize 100000000 indices"),
        ({"frequency_bound": 0}, "need frequency bound V >= 1, got V = 0"),
        ({"frequency_bound": 200}, "has 80400 frequencies up to sign, more than the cap"),
        ({"grid_m": 1}, "need m >= 2 grid cells per axis, got m = 1"),
        ({"grid_m": 5000}, "m^k = 5000^2 corners is more than the cap"),
        ({"discrepancy_method": "bogus"}, "unknown method 'bogus'"),
        ({"discrepancy_method": "exact", "functions": ["x"] * 3,
          "sequences": ["identity"] * 3}, "exact method supports k <= 2 only, got k = 3"),
        ({"discrepancy_method": "exact", "n_grid": "100,5000"},
         "exact 2-d method capped at N = 4096, got N = 5000"),
        ({"discrepancy_method": "exact"}, "grid size m = 128 needs --method grid; the exact"),
        ({"discrepancy_method": "auto", "functions": ["x"], "sequences": ["identity"]},
         "grid size m = 128 needs --method grid; the auto method is exact at k = 1"),
        ({"x_samples": 0}, "x_samples must be >= 1, got 0"),
        ({"grid_m": 8, "dstar_final_max": 0.09},
         "the lattice bound k/m = 2/8 is at least dstar_final_max = 0.09"),
        ({"grid_m": 64.5, "dstar_final_max": 0.1}, "grid_m must be an integer, got 64.5"),
        ({"frequency_bound": 2.5}, "frequency_bound must be an integer, got 2.5"),
        ({"x_samples": 2.5}, "x_samples must be an integer, got 2.5"),
        ({"x_samples": True}, "x_samples must be an integer, got True"),
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"dstar_final_max": "0.1"}, "dstar_final_max must be a finite number, got '0.1'"),
        ({"dstar_final_max": float("nan")}, "dstar_final_max must be a finite number, got nan"),
        ({"min_pass_fraction": 1.5}, "min_pass_fraction 1.5 is not in [0, 1]"),
        ({"min_pass_fraction": "0.9"}, "min_pass_fraction '0.9' is not in [0, 1]"),
    ], ids=["index-cap", "no-frequencies", "frequency-box-cap", "m-below-2", "lattice-cap",
            "unknown-method", "exact-3d", "exact-2d-past-4096", "exact-with-m",
            "auto-1d-with-m", "no-samples",
            "lattice-bound-past-limit", "fractional-m", "fractional-frequency-bound",
            "fractional-samples", "boolean-samples", "string-seed", "boolean-seed",
            "fractional-seed", "string-limit", "nan-limit",
            "pass-fraction-above-1", "string-pass-fraction"])
    def test_out_of_range_config_exits_2_at_load(self, change, message, tmp_path, capsys,
                                                 monkeypatch):
        # each used to fail on every sample and exit 3 with five outputs
        # (x_samples 0: exit 0 with empty outputs; an m with exact: exact
        # values, m ignored)
        def no_sample(self, coords):
            raise AssertionError("a sample was built before the config was checked")
        monkeypatch.setattr(wy.PointGenerator, "__init__", no_sample)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**small_config().to_dict(), **change}))
        err = self.assert_usage_error(["experiment", "--config", str(cfg_path),
                                       "--out", str(tmp_path)], capsys)
        assert message in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["weylsum", "--gen", "x=0.3; prod:power:eps=200|x", "--v", "1", "--grid", "10,100"],
        ["discrepancy", "--gen", "x=0.3; prod:power:eps=200|x", "--grid", "10,100"],
        ["weylsum", "--gen", "x=1.5; tower:x|power:eps=200", "--v", "1", "--grid", "10,100"],
        ["discrepancy", "--gen", "x=1.5; tower:x|power:eps=200", "--grid", "10,100"],
    ], ids=["weylsum-product", "discrepancy-product", "weylsum-tower", "discrepancy-tower"])
    def test_non_finite_coordinate_exits_2_naming_n(self, argv, capsys):
        # n^200 overflows from n = 35; product coordinates used to warn and
        # go on (a RuntimeWarning is an error under pytest)
        assert "at n = 35 is inf" in self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["weylsum", "--gen", "x=0.3; prod:power:eps=200|x", "--v", "1", "--grid", "10,33"],
         "sequence value at n = 32 is 1.07"),
        (["weylsum", "--gen", "x=0.3; prod:identity|exp(1000)", "--v", "1", "--grid", "10,33"],
         "f(x) at x = 0.3 is inf"),
        (["weylsum", "--gen", "x=1.5; tower:x|power:eps=200", "--v", "1", "--grid", "10,33"],
         "tower exponent at n = 2 is 1.6"),
        (["scatter", "--seq", "identity", "--delta", "1", "--grid",
          "sublacunary:0.99:1000000"], "more than 2**26 steps r"),
    ], ids=["product-split-range", "product-f-overflow", "tower-bit-budget",
            "sublacunary-steps"])
    def test_out_of_range_input_exits_2(self, argv, message, capsys):
        # finite but huge a(n), f(x) or b(n) used to warn on overflow or on
        # an int64 cast, and the grid to search r for about 13.8^100 steps
        assert message in self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["scatter", "--seq", "identity", "--delta", "1", "--grid", "pow2:40..44"],
        ["scatter", "--seq", "iterexp", "--delta", "1", "--grid", "pow2:40..44"],
        ["growth", "--seq", "identity", "--eps", "0.4", "--g", "0.3", "--N", "100000000000"],
        ["discrepancy", "--gen", "x=0.3; prod:identity|x", "--grid", "pow2:40..41"],
        ["weylsum", "--gen", "x=0.3; prod:identity|x", "--v", "1", "--grid", "pow2:40..41"],
        ["weylsum", "--gen", "x=0.3; prod:identity|x", "--v", "1", "--grid", "27,28",
         "--sets", "geometric:rho=2"],
    ], ids=["scatter", "scatter-hook", "growth", "discrepancy", "weylsum",
            "weylsum-set-size"])
    def test_index_count_past_cap_exits_2(self, argv, capsys):
        # refused before any allocation: these used to ask for up to
        # 128 TiB, or to loop 2^41 times summing 1/|S_M|
        assert "refusing to materialize" in self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv, header, n_rows", [
        (["scatter", "--seq", "identity", "--delta", "1", "--grid", "8,16,32,64"],
         "N,S,eps_pointwise,method,err_bound", 4),
        (["weylsum", "--gen", "x=0.3; prod:identity|x", "--v", "1", "--grid", "pow2:2..4"],
         "N,v,re_F,im_F,abs_F,precision_bits", 3),
        (["discrepancy", "--gen", "x=0.618; prod:identity|x", "--grid", "100,1000"],
         "N,dstar,err_bound,method,flags", 2),
        (["oscdecay", "--f", "x", "--interval", "1,2", "--radii", "halfpow2:2..7",
          "--dirs", "1"], "direction_index,omega,R,abs_integral,err_est,noise,flags", 6),
    ], ids=["scatter", "weylsum", "discrepancy", "oscdecay"])
    def test_csv_output(self, argv, header, n_rows, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert cli.main(argv + ["--csv", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == n_rows + 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if not line.startswith("#")] == lines

    def test_experiment_cli_outputs(self, tmp_path, capsys):
        config = small_config().to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = cli.main(["experiment", "--config", str(cfg_path),
                         "--out", str(out_dir)])
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["probe_dstar.csv", "probe_dstar.svg",
                         "probe_provenance.json", "probe_quantiles.csv",
                         "probe_weyl.csv"]
        prov = json.loads((out_dir / "probe_provenance.json").read_text())
        assert prov["config"]["kind"] == "curve-product"
        assert prov["constants"]["tower_guard_bits"] == 96

    def test_experiment_threshold_failure_exit(self, tmp_path, capsys):
        config = small_config(discrepancy_method="exact", grid_m=None,
                              dstar_final_max=1e-6).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = cli.main(["experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1

    def test_experiment_with_every_sample_failed_exits_3(self, tmp_path, capsys):
        # tower base g(x) = x stays below 1 on the whole interval
        config = lab.ExperimentConfig(
            kind="power-tower-pair", tower_base="x",
            tower_sequences=["identity", "affine:alpha=2,beta=0"],
            x_interval=(0.1, 0.9), x_samples=3, n_grid="pow2:5..7",
            frequency_bound=1, label="none").to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        svgs = []
        for out_dir in (tmp_path / "a", tmp_path / "b"):
            assert cli.main(["experiment", "--config", str(cfg_path),
                             "--out", str(out_dir)]) == 3
            assert "# WARNING: partial coverage" in capsys.readouterr().out
            assert len(os.listdir(out_dir)) == 5
            svgs.append((out_dir / "none_dstar.svg").read_bytes())
        assert svgs[0] == svgs[1]
        assert b"<polyline" not in svgs[0] and b">1e4</text>" in svgs[0]

    def test_oscdecay_degenerate_direction(self, tmp_path, capsys):
        path = tmp_path / "decay.csv"
        assert cli.main(["oscdecay", "--f", "x;2*x", "--interval", "1,2", "--radii",
                         "halfpow2:2..7", "--dirs", "2", "--csv", str(path)]) == 0
        assert "# degenerate direction flagged" in capsys.readouterr().out
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        flagged = [row for row in rows if row[0] == "-1"]
        assert len(flagged) == 6 and all(row[-1] == "degenerate" for row in flagged)

    def test_oscdecay_degenerate_rows_carry_error_and_noise(self, tmp_path):
        # these cells printed err_est 0.0 and noise 0.0
        path = tmp_path / "decay.csv"
        assert cli.main(["oscdecay", "--f", "x;2*x+1", "--interval", "0,1", "--radii",
                         "halfpow2:2..9", "--dirs", "3", "--seed", "1", "--csv", str(path)]) == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        flagged = {float(row[2]): row for row in rows if row[0] == "-1"}
        assert len(flagged) == 8
        assert all(float(row[4]) > 0.0 and float(row[5]) > 0.0 for row in flagged.values())
        assert float(flagged[512.5][4]) == pytest.approx(3.3e-16, rel=0.05)
        assert float(flagged[512.5][5]) == pytest.approx(1.6e-13, rel=0.05)

    def test_oscdecay_unreliable_cells_exit_3(self, capsys):
        # the K31 rounding floor on [0, 10000.3] exceeds tol 1e-12: every cell
        # ends unreliable at the bisection cap
        assert cli.main(["oscdecay", "--f", "x", "--interval", "0,10000.3", "--radii",
                         "1,2,3,4,5,6", "--dirs", "1", "--tol", "1e-12"]) == 3
        rows = capsys.readouterr().out.splitlines()[-6:]
        assert all(row.endswith(",unreliable") for row in rows)

    def test_oscdecay_runs(self, capsys):
        code = cli.main(["oscdecay", "--f", "x", "--interval", "0,1",
                         "--radii", "halfpow2:2..8", "--dirs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_hat=1.0" in out

    def test_weylsum_runs(self, capsys):
        code = cli.main(["weylsum", "--gen", "x=0.5; prod:identity|x",
                         "--v", "1", "--grid", "2,4,8",
                         "--sets", "strided:c=2"])
        assert code == 0
        assert "1.0" in capsys.readouterr().out

    def test_discrepancy_runs(self, capsys):
        code = cli.main(["discrepancy", "--gen", "x=0.618; prod:identity|x",
                         "--grid", "100,1000", "--method", "auto"])
        assert code == 0

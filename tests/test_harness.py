"""Harness: predicted orders, reports, reproducibility, CLI contract."""

import json
import re

import numpy as np
import pytest

from spde_taylor.cli import load_config_file, main
from spde_taylor.engine import builtin_scheme
from spde_taylor.harness import (
    ConfigError,
    ErrorReport,
    ErrorRow,
    ExperimentConfig,
    HarnessError,
    ReportError,
    render_csv,
    render_json,
    report_emit,
    resolve_scheme,
    run_convergence,
    symbolic_report,
    _ladder_errors,
)
from spde_taylor.models import (
    apply_semigroup,
    build_model,
    smoothed_diffusion_hs_norm,
)
from spde_taylor.trees import order_wood

W1_TEXT = "(0);(1*);(2);(2*[0]);(2*[1*]);(2*[2*])"

TINY = ExperimentConfig(
    model="heat-mult",
    scheme="exp-euler-nodrift",
    paths=8,
    seed=5,
    fine_log2=9,
    ladder_log2=(3, 4, 5),
    modes=16,
    noise_modes=16,
)


def order_of(name_or_wood: str, gamma: float, delta: float) -> float:
    return order_wood(resolve_scheme(name_or_wood)[1]).evaluate(gamma, delta)


class TestPredictedOrder:
    def test_heat_values(self):
        gamma, delta = 0.245, 0.25
        assert order_of("exp-euler", gamma, delta) == pytest.approx(0.495)
        assert order_of("milstein-b0", gamma, delta) == pytest.approx(0.5)
        assert order_of("full-2nd", gamma, delta) == pytest.approx(0.74)
        assert order_of("taylor-delta", gamma, delta) == pytest.approx(0.25)

    def test_wood_text_argument(self):
        assert order_of(W1_TEXT, 0.245, 0.25) == pytest.approx(0.495)

    def test_scheme_resolution(self):
        by_name, wood_name = resolve_scheme("exp-euler-nodrift")
        by_text, wood_text = resolve_scheme(W1_TEXT)
        assert by_name.describe() == by_text.describe() == "I^0_0 + I^0_2"
        assert wood_name == wood_text


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(paths=1),
            dict(t_end=0.0),
            dict(ladder_log2=()),
            dict(ladder_log2=(13,)),  # finer than the fine mesh
            dict(p_norm=0.5),
            dict(ladder_log2=(4, 4, 5)),  # a repeated h would count its paths twice
            dict(seed=-1),  # Philox keys lie in 0..2**128 - 1
            dict(seed=2**128),
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs).validate()

    def test_ladder_values(self):
        config = ExperimentConfig(t_end=2.0, fine_log2=4, ladder_log2=(1, 2))
        assert config.ladder == (1.0, 0.5)
        assert config.h_fine == 0.125


class TestRunConvergence:
    def test_tiny_run_shape(self):
        report = run_convergence(TINY)
        assert len(report.rows) == 3
        assert report.rows[0].h > report.rows[-1].h
        assert all(row.n_paths == 8 for row in report.rows)
        assert report.predicted == pytest.approx(0.495)
        assert report.verdict == (
            report.lower_bound <= report.slope <= report.upper_bound
        )

    def test_reproducibility_bytes(self):
        a = render_csv(run_convergence(TINY))
        b = render_csv(run_convergence(TINY))
        assert a.encode() == b.encode()

    def test_seed_changes_errors(self):
        a = run_convergence(TINY)
        b = run_convergence(ExperimentConfig(**{**TINY.__dict__, "seed": 6}))
        assert a.rows[0].error != b.rows[0].error

    def test_standard_error_shrinks_with_paths(self):
        small = run_convergence(TINY)
        big = run_convergence(
            ExperimentConfig(**{**TINY.__dict__, "paths": 128})
        )
        ratios = [
            s.stderr / b.stderr for s, b in zip(small.rows, big.rows)
        ]
        # 16x the paths should shrink standard errors about 4x.
        assert 2.0 < np.mean(ratios) < 8.0

    def test_error_monotone_on_passing_run(self):
        report = run_convergence(
            ExperimentConfig(**{**TINY.__dict__, "paths": 64})
        )
        if report.verdict:
            errors = [row.error for row in report.rows]
            tol = [2 * row.stderr for row in report.rows]
            violations = sum(
                1
                for i in range(len(errors) - 1)
                if errors[i + 1] > errors[i] + tol[i + 1]
            )
            assert violations <= 1

    def test_lp_error_estimates_grow_with_p(self):
        # Lp norms are nondecreasing in p, so the per-h estimates must be
        # ordered across p on identical paths.
        reports = {
            p: run_convergence(
                ExperimentConfig(**{**TINY.__dict__, "p_norm": p})
            )
            for p in (1.0, 2.0, 4.0)
        }
        for r1, r2, r4 in zip(
            reports[1.0].rows, reports[2.0].rows, reports[4.0].rows
        ):
            assert r1.error <= r2.error * (1 + 1e-12)
            assert r2.error <= r4.error * (1 + 1e-12)

    def test_taylor_delta_order_in_asymptotic_regime(self):
        # On the default ladder the one-step error of the semigroup-only
        # scheme saturates (the state relaxes on the same timescale as the
        # largest steps), so its quarter-order rate only shows on smaller
        # steps.  This pins the rate where the asymptotics apply.
        config = ExperimentConfig(
            model="heat-mult",
            scheme="taylor-delta",
            paths=60,
            seed=2024,
            fine_log2=16,
            ladder_log2=(8, 9, 10, 11, 12),
        )
        report = run_convergence(config)
        assert report.predicted == pytest.approx(0.25)
        assert 0.18 < report.slope < 0.40

    def test_taylor_delta_matches_isometry_oracle_on_default_ladder(self):
        # The semigroup-only scheme's one-step error is the stochastic
        # convolution it omits.  With B evaluated along the deterministic
        # flow, the Ito isometry gives its L2 size in closed form,
        #   sqrt(int_0^h |e^{A(h-s)} B(e^{As} u0)|_HS^2 ds),
        # here by 64-node Gauss-Legendre quadrature in s.  On the default
        # ladder the Monte-Carlo errors match it, and its own slope lies
        # below the criterion-3 window: the regime, not the engine, is why
        # taylor-delta fails criterion 3 there.
        config = ExperimentConfig(scheme="taylor-delta", paths=60, seed=12345)
        report = run_convergence(config)
        spec = build_model(config.model, config.modes, config.noise_modes, config.r)
        ws = spec.workspace()
        nodes, weights = np.polynomial.legendre.leggauss(64)
        oracle = []
        for row in report.rows:
            s, w = row.h * (nodes + 1) / 2, weights * row.h / 2
            hs_sq = [
                smoothed_diffusion_hs_norm(
                    spec, apply_semigroup(spec.initial, t, spec), row.h - t, ws
                ) ** 2
                for t in s
            ]
            oracle.append(np.sqrt(np.dot(w, hs_sq)))
        z = [(row.error - o) / row.stderr for row, o in zip(report.rows, oracle)]
        assert np.all(np.abs(z) < 4.0), np.round(z, 2)
        hs = [row.h for row in report.rows]
        oracle_slope = np.polyfit(np.log(hs), np.log(oracle), 1)[0]
        assert oracle_slope < report.lower_bound, oracle_slope

    def test_exact_scheme_has_no_usable_rows(self):
        # The additive model makes the exponential Euler step exact, so every
        # coupled error is zero and the regression has nothing to fit.
        config = ExperimentConfig(
            model="heat-add",
            scheme="exp-euler",
            paths=4,
            seed=5,
            fine_log2=8,
            ladder_log2=(3, 4, 5),
            modes=8,
            noise_modes=8,
        )
        with pytest.raises(HarnessError, match="usable ladder points"):
            run_convergence(config)

    def test_multi_step_coupling_floor_is_zero(self):
        # Iterating the scheme the reference is built from, at the fine step,
        # reproduces the reference exactly on every path.
        config = ExperimentConfig(
            model="heat-mult",
            scheme="exp-euler",
            paths=3,
            seed=5,
            fine_log2=6,
            ladder_log2=(6,),
            modes=8,
            noise_modes=8,
            multi_step=True,
        )
        model = build_model("heat-mult", 8, 8, 0.005)
        errors, _ = _ladder_errors(config, builtin_scheme("exp-euler"), model)
        assert errors[config.ladder[0]] == [0.0, 0.0, 0.0]

    def test_multi_step_mode_runs(self):
        # taylor-delta iterated is the pure semigroup flow, so the global
        # error equals the reference's noise contribution: positive, finite
        # and light-tailed on the additive model.
        config = ExperimentConfig(
            model="heat-add",
            scheme="taylor-delta",
            paths=16,
            seed=5,
            fine_log2=8,
            ladder_log2=(4, 5),
            modes=8,
            noise_modes=8,
            multi_step=True,
        )
        report = run_convergence(config)
        assert all(np.isfinite(row.error) for row in report.rows)
        assert all(row.error > 0 for row in report.rows)
        assert not report.verdict  # the iterated semigroup has no h-gain


class TestReports:
    def make_report(self):
        return run_convergence(TINY)

    def test_csv_layout(self):
        text = render_csv(self.make_report())
        lines = text.strip().split("\n")
        assert lines[0] == "h,error,stderr,n_paths,n_excluded"
        assert len(lines) == 4

    def test_json_payload(self):
        payload = json.loads(render_json(self.make_report()))
        assert payload["verdict"] in ("pass", "fail")
        assert payload["config"]["scheme"] == "exp-euler-nodrift"
        assert len(payload["rows"]) == 3
        assert payload["metadata"]["package"] == "spde-taylor"
        assert payload["bounds"][0] == pytest.approx(0.495 - 0.10)
        assert payload["bounds"][1] == pytest.approx(0.495 + 0.20)

    def test_empty_report_rejected(self):
        empty = ErrorReport(
            config=TINY,
            rows=(),
            slope=0.0,
            predicted=0.0,
            verdict=False,
            margin=0.0,
            gamma=0.245,
            delta=0.25,
            regression_rows=0,
        )
        with pytest.raises(ReportError, match="no data rows"):
            render_csv(empty)
        with pytest.raises(ReportError, match="no data rows"):
            render_json(empty)

    def test_emit_writes_both_files(self, tmp_path):
        csv_path, json_path = report_emit(self.make_report(), tmp_path / "out")
        assert csv_path.read_text().startswith("h,error")
        assert json.loads(json_path.read_text())["rows"]

    def test_verdict_window(self):
        row = ErrorRow(h=0.1, error=0.01, stderr=0.001, n_paths=4, n_excluded=0)
        report = ErrorReport(
            config=TINY, rows=(row,), slope=0.42, predicted=0.5, verdict=True,
            margin=0.02, gamma=0.245, delta=0.25, regression_rows=1,
        )
        assert report.lower_bound == pytest.approx(0.40)
        assert report.upper_bound == pytest.approx(0.70)


class TestSymbolicReport:
    def test_w1(self):
        text = symbolic_report(W1_TEXT)
        assert "trees: 6" in text
        assert (
            "active nodes: (2,1), (4,1), (5,1), (5,2), (6,1), (6,2)" in text
        )
        assert "order: δ + min(γ, δ)" in text
        assert "computable terms: I^0_0 + I^0_2" in text
        assert "required diffusion derivative orders: [0]" in text

    def test_initial_wood(self):
        text = symbolic_report("(0);(1*);(2*)")
        assert "order: δ" in text
        assert "computable terms: I^0_0" in text

    def test_inactive_wood(self):
        text = symbolic_report("(2)")
        assert "active nodes: none" in text
        assert "order: undefined (no active tree)" in text


class TestCli:
    def test_symbolic_command(self, capsys):
        assert main(["symbolic", "--wood", W1_TEXT]) == 0
        out = capsys.readouterr().out
        assert "trees: 6" in out

    def test_symbolic_parse_error(self, capsys):
        assert main(["symbolic", "--wood", "(3)"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_converge_exit_code_matches_verdict(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "converge",
                "--model", "heat-mult",
                "--scheme", "exp-euler-nodrift",
                "--paths", "8",
                "--seed", "5",
                "--fine", "9",
                "--ladder", "3,4,5",
                "--modes", "16",
                "--noise-modes", "16",
                "--out", str(out_dir),
            ]
        )
        payload = json.loads((out_dir / "report.json").read_text())
        assert code == (0 if payload["verdict"] == "pass" else 2)
        assert (out_dir / "report.csv").exists()

    def test_converge_bad_model_is_error(self, capsys):
        code = main(["converge", "--model", "wave", "--paths", "4"])
        assert code == 1
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["converge", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["symbolic"], "the following arguments are required: --wood"),
        ],
    )
    def test_usage_error_is_error(self, argv, message, capsys):
        # argparse alone would exit 2, the code of a failed verdict.
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["converge", "--help"])
        assert info.value.code == 0
        assert "--noise-modes" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        ["--paths", "--seed", "--fine", "--p", "--r", "--t-end", "--modes", "--noise-modes"],
    )
    def test_non_numeric_flag_is_error(self, flag, capsys):
        # Exit 2 is a failed verdict; a bad flag value must not look like one.
        code = main(["converge", flag, "x"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# tiny run\n"
            "model = heat-mult\n"
            "scheme = exp-euler-nodrift\n"
            "paths = 8\n"
            "seed = 5\n"
            "fine = 9\n"
            "ladder = 3,4,5\n"
            "modes = 16\n"
            "noise_modes = 16\n"
        )
        values = load_config_file(str(config))
        assert values["paths"] == 8
        code = main(["converge", "--config", str(config), "--seed", "6"])
        assert code in (0, 2)
        out = capsys.readouterr().out
        assert "slope=" in out

    def test_config_file_unknown_key(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("speed = 11\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(str(config))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("multi_step = maybe", "expected a boolean, got 'maybe'"),
            ("paths = many", "invalid literal for int()"),
            ("ladder = 4,x", "bad ladder '4,x'"),
        ],
    )
    def test_config_file_value_error_names_the_line(self, tmp_path, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"seed = 5\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{config}:2: {message}")):
            load_config_file(str(config))

    @pytest.mark.parametrize("source", ["--scheme", "--config"])
    def test_wood_text_scheme_via_cli(self, source, tmp_path, capsys):
        config = tmp_path / "wood.cfg"
        config.write_text(f"scheme = {W1_TEXT}\n")
        code = main(
            [
                "converge",
                source, W1_TEXT if source == "--scheme" else str(config),
                "--paths", "8",
                "--seed", "5",
                "--fine", "9",
                "--ladder", "3,4,5",
                "--modes", "16",
                "--noise-modes", "16",
            ]
        )
        assert code in (0, 2)
        assert "predicted=0.4950" in capsys.readouterr().out

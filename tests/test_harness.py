"""Harness: predicted orders, reports, reproducibility, CLI contract."""

import collections
import dataclasses
import errno
import json
import re
import warnings

import numpy as np
import pytest

from spde_taylor import cli, engine, harness
from spde_taylor.cli import _converge_config, build_parser, load_config_file, main
from spde_taylor.engine import (
    BUILTIN_WOODS,
    _REFERENCE_SCHEME,
    NoisePath,
    NonfiniteValueError,
    builtin_scheme,
    reference_solve,
    step,
)
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
    run_study,
    symbolic_report,
    _ladder_errors,
    _lp_estimate,
    _row_statistics,
)
from spde_taylor.models import (
    MultiplicationDiffusion,
    apply_semigroup,
    build_model,
    heat_multiplicative_model,
    smoothed_diffusion_hs_norm,
)
from spde_taylor.trees import (
    ParseError, active_nodes, expand, initial_wood, order_wood, serialize,
)

W1_TEXT = "(0);(1*);(2);(2*[0]);(2*[1*]);(2*[2*])"

CRITERION_3_SCHEMES = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")
#: Wood text whose comma sits inside its brackets.
BRACKETED_WOOD = "(0);(1*[0,2*]);(2*)"

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
        for name in BUILTIN_WOODS:
            resolved, builtin = resolve_scheme(name)[0], builtin_scheme(name)
            assert resolved == builtin
            assert resolved.describe() == builtin.describe()


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
            dict(t_end=float("nan")),
            dict(t_end=float("inf")),
            dict(p_norm=float("nan")),
            dict(p_norm=float("inf")),  # every error would read 1.0
            dict(ladder_log2=(4, 4, 5)),  # a repeated h would count its paths twice
            dict(seed=-1),  # Philox keys lie in 0..2**128 - 1
            dict(seed=2**128),
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(fine_log2=-1), "fine_log2 must be >= 0"),
            (dict(modes=0), "mode counts must be >= 1"),
            (dict(noise_modes=0), "mode counts must be >= 1"),
        ],
    )
    def test_rejection_messages(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**kwargs).validate()

    def test_ladder_values(self):
        config = ExperimentConfig(t_end=2.0, fine_log2=4, ladder_log2=(1, 2))
        assert config.ladder == (1.0, 0.5)
        assert config.h_fine == 0.125
        # The ladder runs from the longest step down, whatever the order of
        # its exponents.
        assert dataclasses.replace(config, ladder_log2=(2, 1)).ladder == (1.0, 0.5)


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
        nodes, weights = np.polynomial.legendre.leggauss(64)
        oracle = []
        for row in report.rows:
            s, w = row.h * (nodes + 1) / 2, weights * row.h / 2
            hs_sq = [
                smoothed_diffusion_hs_norm(
                    spec, apply_semigroup(spec.initial, t, spec), row.h - t
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
        # coupled error is rounding: below the floor, the rows leave the
        # regression, and the report gives the reason instead of a slope.
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
        report = run_convergence(config)
        assert report.slope is None and report.verdict is None and report.margin is None
        assert report.reason == harness.ROUNDING_REASON
        assert report.regression_rows == 0
        payload = json.loads(render_json(report))
        assert payload["slope"] is None and payload["verdict"] is None
        assert payload["reason"] == harness.ROUNDING_REASON

    def test_rows_dropped_by_noise_or_non_finite_rules_still_raise(self):
        # Rows within 3 sigma of zero or not finite leave the regression as
        # before; with fewer than two left and none below the rounding
        # floor, that is an error, not a rounding outcome.
        rows = (
            ErrorRow(h=0.25, error=1e-3, stderr=1e-4, n_paths=4, n_excluded=0),
            ErrorRow(h=0.125, error=1e-3, stderr=1e-3, n_paths=4, n_excluded=0),
            ErrorRow(h=0.0625, error=float("nan"), stderr=float("nan"), n_paths=0, n_excluded=4),
        )
        floors = [1e-15] * 3
        with pytest.raises(HarnessError, match="usable ladder points"):
            harness._regression_slope(rows, floors)
        # One usable row and one below its floor: the floor made the
        # shortfall, so there is no slope and no error.
        assert harness._regression_slope(rows[:1] + rows[:1], [1e-15, 1e-2]) == (
            None, 1, harness.ROUNDING_REASON
        )

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
        errors, reference = _ladder_errors(config, (builtin_scheme("exp-euler"),), model)
        assert errors.dtype == reference.dtype == float
        assert errors.tolist() == [[[0.0, 0.0, 0.0]]]
        assert reference.shape == (1, 3) and (reference > 0.0).all()

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
        # The wood predicts no order for global errors.
        assert report.verdict is None and report.margin is None

    def test_multi_step_shortfall_reports_its_rows_and_the_reason(self):
        # Rows 2.6e-3 +- 1.2e-3, 2.1e-5 +- 7.5e-6 and 5.1e-6 +- 1.5e-6: only
        # the last lies three standard errors above zero.  A multi-step run
        # has no verdict to withhold, so it reports the rows with the reason
        # where a one-step run would raise.
        config = ExperimentConfig(
            model="heat-mult", fine_log2=8, ladder_log2=(2, 3, 4), paths=6, seed=11,
            modes=16, noise_modes=16, multi_step=True,
        )
        for name in ("exp-euler", "exp-euler-nodrift"):
            report = run_convergence(dataclasses.replace(config, scheme=name))
            assert report.slope is None and report.verdict is None and report.margin is None
            assert report.reason == harness.SHORTFALL_REASON
            assert report.regression_rows == 1
            assert [row.n_paths for row in report.rows] == [6, 6, 6]
            payload = json.loads(render_json(report))
            assert payload["slope"] is None and payload["reason"] == harness.SHORTFALL_REASON


class TestStudy:
    @pytest.mark.parametrize("multi_step", [False, True], ids=["one-step", "multi-step"])
    def test_each_report_equals_its_one_scheme_run(self, multi_step):
        config = dataclasses.replace(TINY, multi_step=multi_step)
        names = tuple(BUILTIN_WOODS)
        reports = run_study(config, names)
        assert [report.config.scheme for report in reports] == list(names)
        for name, report in zip(names, reports):
            alone = run_convergence(dataclasses.replace(config, scheme=name))
            assert report == alone
            assert render_json(report) == render_json(alone)
            assert render_csv(report) == render_csv(alone)

    def test_malformed_scheme_fails_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "_run", lambda *args: runs.append(args))
        with pytest.raises(ParseError):
            run_study(TINY, ("exp-euler", "full-2nd", "(0[1]"))
        assert runs == []


class ConstantMultiplier(MultiplicationDiffusion):
    """A test double: B(v) multiplies by 1 whatever v, while B' multiplies
    as for multiplication noise.  The reference is then linear in the noise
    and the iterated term I^1_2[I^0_2] quadratic, so scaled increments can
    overflow a coarse run and leave the reference finite.  It fuses no step,
    so the reference, too, sums these rows."""

    def bind_rows(self, order):
        if order == 0:
            interpolant = self.interpolant
            return lambda base, arg_rows, noise: noise @ interpolant
        return super().bind_rows(order)

    def bind_step(self, weights):
        return None


def scale_path(monkeypatch, index, factor):
    """Multiply the increments the harness draws for path ``index``."""
    draw, generator = NoisePath.draw, harness.path_generator

    def tagged(seed, path_index):
        return path_index, generator(seed, path_index)

    def scaled(tagged_rng, *args):
        path_index, rng = tagged_rng
        path = draw(rng, *args)
        if path_index != index:
            return path
        return NoisePath(path.increments * factor, h_fine=path.h_fine)

    monkeypatch.setattr(harness, "path_generator", tagged)
    monkeypatch.setattr(NoisePath, "draw", staticmethod(scaled))


def chunk_runs(monkeypatch, paths_per_chunk, config):
    """Set the chunk budget to ``paths_per_chunk`` paths of ``config``'s
    window and record the scheme and the height of every batch the stepping
    loop runs."""
    window = 2 ** (config.fine_log2 - min(config.ladder_log2))
    monkeypatch.setattr(
        harness, "_CHUNK_BYTES", paths_per_chunk * 8 * window * config.noise_modes
    )
    runs = []
    run = harness._run

    def spy(plan, states, *args, **kwargs):
        runs.append((plan.scheme, len(states)))
        return run(plan, states, *args, **kwargs)

    monkeypatch.setattr(harness, "_run", spy)
    return runs


def study_runs(monkeypatch, config, paths_per_chunk):
    """The runs that ``_ladder_errors`` binds for three builtins, the path
    ranges it cuts at a budget of ``paths_per_chunk`` paths, and its two
    arrays."""
    window = 2 ** (config.fine_log2 - (0 if config.multi_step else min(config.ladder_log2)))
    schemes = tuple(builtin_scheme(name) for name in ("full-2nd", "milstein-b0", "exp-euler"))
    model = build_model(config.model, config.modes, config.noise_modes, config.r)
    routine, calls = harness._range_errors, []

    def spy(config, model, runs, ranges):
        calls.append((runs, list(ranges)))
        return routine(config, model, runs, calls[-1][1])

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_CHUNK_BYTES", paths_per_chunk * 8 * window * config.noise_modes)
        patch.setattr(harness, "_range_errors", spy)
        errors, reference = harness._ladder_errors(config, schemes, model)
    [(runs, ranges)] = calls
    return runs, ranges, errors, reference


class CountingMultiplier(MultiplicationDiffusion):
    """A test double: multiplication noise that counts, by derivative
    order, the row blocks it builds over more than one substep (the
    reference builds one row per substep)."""

    def __init__(self, modes, noise_modes):
        super().__init__(modes, noise_modes)
        self.builds = collections.Counter()

    def bind_rows(self, order):
        rows = super().bind_rows(order)
        if rows is None:
            return None

        def counted(base, arg_rows, noise):
            if noise.shape[-2] > 1:
                self.builds[order] += 1
            return rows(base, arg_rows, noise)

        return counted


class TestChunks:
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch):
        # A two-scheme study runs the reference once per chunk, not once
        # per scheme and chunk.
        names = ("full-2nd", "milstein-b0")
        studies, seen, references = [], [], []
        for per_chunk in (1, 3, TINY.paths):
            with monkeypatch.context() as patch:
                runs = chunk_runs(patch, per_chunk, TINY)
                studies.append(run_study(TINY, names))
            seen.append(sorted({height for _, height in runs}))
            references.append(sum(scheme is _REFERENCE_SCHEME for scheme, _ in runs))
            # One one-step plan per scheme, h and chunk.
            assert len(runs) == references[-1] * (1 + len(names) * len(TINY.ladder))
        assert seen == [[1], [2, 3], [TINY.paths]]
        assert references == [8, 3, 1]
        assert studies[0] == studies[1] == studies[2]
        for report in studies[0]:
            assert report == run_convergence(report.config)

    @pytest.mark.parametrize("multi_step", [False, True], ids=["one-step", "multi-step"])
    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_any_split_of_the_paths_gives_the_studys_columns(
        self, monkeypatch, model_name, multi_step
    ):
        # The routine of a path range reads nothing but the path indices:
        # over any split of [0, n), some cuts inside the study's chunks of
        # three, its columns concatenate to the bytes of the study's arrays.
        config = dataclasses.replace(TINY, model=model_name, multi_step=multi_step)
        runs, ranges, errors, reference = study_runs(monkeypatch, config, 3)
        assert ranges == [(0, 3), (3, 6), (6, 8)]
        assert runs[0][0].scheme is _REFERENCE_SCHEME and len(runs) == 1 + errors[..., 0].size
        columns, model = errors.reshape(-1, config.paths), runs[0][0].model
        for cuts in ([0, 8], [0, 5, 8], [0, 1, 2, 7, 8], [0, 4, 5, 6, 8]):
            pieces = list(harness._range_errors(config, model, runs, zip(cuts, cuts[1:])))
            assert [e.shape[-1] for e, _ in pieces] == np.diff(cuts).tolist()
            assert np.hstack([e for e, _ in pieces]).tobytes() == columns.tobytes()
            assert np.hstack([r for _, r in pieces]).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("multi_step", [False, True], ids=["one-step", "multi-step"])
    def test_a_reference_blow_up_in_a_later_range_raises_as_in_one_range(
        self, monkeypatch, multi_step
    ):
        # Path 6's reference blows up: a split yields the earlier range's
        # columns, then raises the one-range study's error.
        config = dataclasses.replace(TINY, multi_step=multi_step)
        runs, _, errors, _ = study_runs(monkeypatch, config, config.paths)
        model = runs[0][0].model
        scale_path(monkeypatch, 6, 1e200)
        with pytest.raises(NonfiniteValueError) as alone:
            run_convergence(config)
        pieces = harness._range_errors(config, model, runs, [(0, 5), (5, config.paths)])
        assert next(pieces)[0].tobytes() == errors.reshape(-1, config.paths)[:, :5].tobytes()
        with pytest.raises(NonfiniteValueError) as later:
            next(pieces)
        assert alone.value.term == later.value.term == "I^0_2"
        assert str(alone.value) == str(later.value)

    @pytest.mark.parametrize("per_chunk", [1, 8])
    def test_step_has_the_studys_bytes_in_either_call_order(self, monkeypatch, per_chunk):
        # A prefix of a drawn path contracts the rows built over the path's
        # one prepared window, as the study's plans contract those built
        # over their chunk's: each one-step state and each reference
        # snapshot of step() and reference_solve() has the bytes of the
        # study's run of that path, whether the prefixes are stepped before
        # or after the reference, from the longest h down or the shortest up.
        config = dataclasses.replace(
            TINY, fine_log2=10, ladder_log2=(2, 3, 4), modes=64, noise_modes=64
        )
        names = sorted(BUILTIN_WOODS)
        schemes = tuple(builtin_scheme(name) for name in names)
        model = build_model(config.model, config.modes, config.noise_modes, config.r)
        study: dict = {}
        with monkeypatch.context() as patch:
            chunk_runs(patch, per_chunk, config)
            run = harness._run

            def keep(plan, states, noise, steps, record_steps=(), store=None):
                out = run(plan, states, noise, steps, record_steps, store=store)
                if plan.scheme is _REFERENCE_SCHEME:
                    for k in record_steps:
                        study.setdefault(("reference", k), []).extend(out[1][k])
                else:
                    assert steps == 1 and store is not None
                    name = names[schemes.index(plan.scheme)]
                    study.setdefault((name, plan.substeps), []).extend(out[0])
                return out

            patch.setattr(harness, "_run", keep)
            harness._ladder_errors(config, schemes, model)
        window = max(k for _, k in study)
        horizons = sorted({k for name, k in study if name != "reference"})
        u0 = model.initial
        for index in range(config.paths):
            for reference_first, order in ((True, horizons[::-1]), (False, horizons)):
                path = NoisePath.draw(
                    harness.path_generator(config.seed, index), window,
                    model.noise_modes, config.h_fine,
                )
                got = {}
                if reference_first:
                    _, recorded = reference_solve(
                        u0, window * config.h_fine, path, model, record_substeps=horizons
                    )
                for name, scheme in zip(names, schemes):
                    for k in order:
                        state = step(scheme, u0, k * config.h_fine, path.prefix(k), model).state
                        got[name, k] = state.coeffs
                if not reference_first:
                    _, recorded = reference_solve(
                        u0, window * config.h_fine, path, model, record_substeps=horizons
                    )
                got.update({("reference", k): recorded[k].coeffs for k in horizons})
                assert got.keys() == study.keys()
                for key, coeffs in got.items():
                    assert coeffs.tobytes() == study[key][index].tobytes(), key

    def test_a_study_builds_each_terms_rows_once_per_chunk(self):
        # Criterion 3's four schemes share three distinct diffusion terms,
        # I^0_2 (order 0), I^1_2[I^0_0] and I^1_2[I^0_2] (order 1): each
        # chunk builds each one's rows once, for every scheme and h.
        # 16 paths make two chunks of 8.
        config = ExperimentConfig(seed=2024, paths=16)
        names = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")
        diffusion = CountingMultiplier(config.modes, config.noise_modes)
        model = dataclasses.replace(heat_multiplicative_model(), diffusion=diffusion)
        harness._ladder_errors(config, tuple(builtin_scheme(n) for n in names), model)
        assert diffusion.builds == {0: 2, 1: 4}

    def test_steps_down_a_ladder_build_each_terms_rows_once(self):
        # Five step()s of each scheme on prefixes of one drawn path build
        # the rows of its three diffusion terms once, over the whole path,
        # and contract them for every h after.
        diffusion = CountingMultiplier(64, 64)
        model = dataclasses.replace(heat_multiplicative_model(), diffusion=diffusion)
        h_fine = 2.0**-12
        path = NoisePath.draw(harness.path_generator(2024, 0), 256, 64, h_fine)
        for name in ("full-2nd", "milstein-b0", "exp-euler", "taylor-delta"):
            for k in (256, 128, 64, 32, 16):
                step(builtin_scheme(name), model.initial, k * h_fine, path.prefix(k), model)
            assert diffusion.builds == {0: 1, 1: 2}

    def test_a_blow_up_is_excluded_exactly_where_its_run_is_not_finite(
        self, monkeypatch
    ):
        # Path 2's increments, scaled by 2.8e154, overflow the full-2nd
        # runs of 64 and 32 substeps but not of 16; the reference of the
        # test double stays finite.  The finite run's error norm, of a
        # state near 1e154 or above, must not overflow.
        config = dataclasses.replace(TINY, scheme="full-2nd")
        model = dataclasses.replace(
            heat_multiplicative_model(16, 16), diffusion=ConstantMultiplier(16, 16)
        )
        scheme = builtin_scheme("full-2nd")
        with monkeypatch.context() as patch:
            chunk_runs(patch, 1, config)
            [alone], _ = harness._ladder_errors(config, (scheme,), model)
        with monkeypatch.context() as patch:
            runs = chunk_runs(patch, config.paths, config)
            scale_path(patch, 2, 2.8e154)
            [errors], _ = harness._ladder_errors(config, (scheme,), model)
        assert {height for _, height in runs} == {config.paths}
        path = NoisePath.draw(harness.path_generator(config.seed, 2), 64, 16, config.h_fine)
        blown = []
        for h in config.ladder:
            scaled = path.increments[: round(h / config.h_fine)] * 2.8e154
            prefix = NoisePath(scaled, config.h_fine)
            try:
                step(scheme, model.initial, h, prefix, model)
                blown.append(False)
            except NonfiniteValueError:
                blown.append(True)
        assert blown == [True, True, False]
        # The path is NaN exactly at the h where its run blew up, and finite
        # elsewhere; every other path keeps its column.
        assert np.isnan(errors[:, 2]).tolist() == blown
        assert np.isfinite(errors[:, 2]).tolist() == [not b for b in blown]
        others = np.arange(config.paths) != 2
        assert errors[:, others].tobytes() == alone[:, others].tobytes()
        for h, row, excluded in zip(config.ladder, errors, blown):
            # Errors up to 3e307 square past the float range; their
            # statistics stay finite.
            stats = _row_statistics(h, row, config.p_norm)
            assert np.isfinite([stats.error, stats.stderr]).all()
            assert (stats.n_paths, stats.n_excluded) == (config.paths - excluded, excluded)

    def test_a_multi_step_blow_up_is_excluded_without_a_replay(self, monkeypatch):
        # Path 2's increments, scaled by 2.8e154, overflow the multi-step
        # full-2nd runs at every h while the test double's reference stays
        # finite.  The study excludes the path and names no term, so no run
        # is replayed to find one.
        config = dataclasses.replace(TINY, scheme="full-2nd", multi_step=True)
        model = dataclasses.replace(
            heat_multiplicative_model(16, 16), diffusion=ConstantMultiplier(16, 16)
        )
        scheme = builtin_scheme("full-2nd")
        [alone], _ = harness._ladder_errors(config, (scheme,), model)
        replays = []
        replay = engine._first_failure
        with monkeypatch.context() as patch:
            scale_path(patch, 2, 2.8e154)
            for module in (engine, harness):  # the harness calls its own import
                patch.setattr(
                    module, "_first_failure", lambda *args: replays.append(args) or replay(*args)
                )
            [errors], _ = harness._ladder_errors(config, (scheme,), model)
        assert replays == []
        assert np.isnan(errors[:, 2]).all()
        others = np.arange(config.paths) != 2
        assert not np.isnan(errors[:, others]).any()
        assert errors[:, others].tobytes() == alone[:, others].tobytes()

    def test_reference_blow_up_fails_the_run(self, monkeypatch):
        scale_path(monkeypatch, 3, 1e200)
        with pytest.raises(NonfiniteValueError) as info:
            run_convergence(TINY)
        assert info.value.term == "I^0_2"


@pytest.mark.parametrize(
    "errors, want",
    [([0.5], (0.5, 0.0)), ([0.0, 0.0, 0.0], (0.0, 0.0))],
    ids=["one-path", "zero-mean"],
)
def test_lp_estimate_without_a_spread_has_no_standard_error(errors, want):
    assert _lp_estimate(np.array(errors), 2.0) == want


def test_row_statistics_of_errors_whose_powers_overflow():
    # The squares of 1e200 and 2e200 overflow; the row scales its errors by
    # the largest and gives the L2 mean sqrt(5 / 2) * 1e200, and the
    # standard error of the errors 1 and 2 scaled by 1e200, with no warning.
    # A NaN is an excluded path, and a row of NaNs has no paths.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = _row_statistics(0.5, np.array([1e200, np.nan, 2e200]), 2.0)
        unit = _row_statistics(0.5, np.array([1.0, 2.0]), 2.0)
        empty = _row_statistics(0.5, np.full(3, np.nan), 2.0)
    assert row.error == pytest.approx(1.5811388300841898e200, rel=1e-15)
    assert row.stderr == pytest.approx(unit.stderr * 1e200, rel=1e-15)
    assert (row.n_paths, row.n_excluded) == (2, 1)
    assert (unit.n_paths, unit.n_excluded) == (2, 0)
    assert np.isnan(empty.error) and np.isnan(empty.stderr)
    assert (empty.n_paths, empty.n_excluded) == (0, 3)


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

    def test_json_of_rows_with_no_paths_is_strict(self, monkeypatch):
        # Every path scaled by 2.8e154 overflows the test double's
        # multi-step full-2nd runs at every h while its reference stays
        # finite, so every row has no paths and a NaN error and stderr.
        # RFC 8259 has no NaN: the JSON writes null, and the CSV keeps nan.
        config = dataclasses.replace(TINY, multi_step=True)
        model = dataclasses.replace(
            heat_multiplicative_model(16, 16), diffusion=ConstantMultiplier(16, 16)
        )
        draw = NoisePath.draw
        monkeypatch.setattr(harness, "build_model", lambda *args: model)
        monkeypatch.setattr(NoisePath, "draw", staticmethod(
            lambda *args: NoisePath(draw(*args).increments * 2.8e154, h_fine=config.h_fine)
        ))
        [report] = run_study(config, ("full-2nd",))
        assert report.reason == harness.SHORTFALL_REASON
        assert [row.n_paths for row in report.rows] == [0, 0, 0]

        def reject(constant):
            raise ValueError(f"not RFC 8259 JSON: {constant}")

        payload = json.loads(render_json(report), parse_constant=reject)
        assert [(row["error"], row["stderr"]) for row in payload["rows"]] == [(None, None)] * 3
        assert [row["n_excluded"] for row in payload["rows"]] == [config.paths] * 3
        csv_rows = render_csv(report).splitlines()[1:]
        assert [line.split(",")[1:3] for line in csv_rows] == [["nan", "nan"]] * 3

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

    @pytest.mark.parametrize(
        "command",
        ["symbolic --wood", "converge --paths 4 --scheme"],
        ids=["symbolic", "converge"],
    )
    def test_wood_nested_too_deeply_is_error(self, command, capsys):
        # 1000 levels below non-zero labels parse, and nothing recurses per
        # level any more: the star check and the lowering keep their own
        # stacks, and terms compare and hash by their keys.  The symbolic
        # report is printed; the study stops at the order of a wood
        # without an active tree, as it would for a shallow one.
        text = "(" + "1[" * 999 + "0" + "]" * 999 + ")"
        code = main(command.split() + [text])
        out, err = capsys.readouterr()
        if command.startswith("symbolic"):
            assert code == 0 and err == "" and f"canonical text: {text}" in out
        else:
            assert code == 1 and out == ""
            assert err == "error: wood has no active tree; its order is undefined\n"

    def test_chain_of_5000_nodes_is_reported(self, capsys):
        # Five times the depth at which the terms' recursive dataclass
        # equality and hashing used to fail.
        text = "(" + "1[" * 4999 + "2" + "]" * 4999 + ");(2*)"
        assert main(["symbolic", "--wood", text]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("trees: 2\nactive nodes: (2,1)\norder: δ\n")
        assert f"canonical text: {text}" in out

    def test_wood_nested_below_the_term_hashing_limit_is_reported(self, capsys):
        # A chain of 400 nodes below non-zero labels compiles, as it did
        # when the lowering and term hashing still recursed once per level.
        text = "(" + "1[" * 399 + "0" + "]" * 399 + ")"
        assert main(["symbolic", "--wood", text]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("trees: 1\n")
        assert f"canonical text: {text}" in out

    def test_a_report_does_not_depend_on_where_it_is_written(self, tmp_path):
        # The output directory is no part of the study: the same study
        # written to two directories, or as a member of a scheme list, gives
        # one run_id and one report.json.
        argv = ["converge", "--paths", "8", "--fine", "9", "--ladder", "3,4,5", "--seed", "3"]
        for out in ("a", "b"):
            main(argv + ["--scheme", "full-2nd", "--out", str(tmp_path / out)])
        main(argv + ["--scheme", "exp-euler,full-2nd", "--out", str(tmp_path / "list")])
        texts = [
            (tmp_path / where / "report.json").read_bytes()
            for where in ("a", "b", "list/full-2nd")
        ]
        assert texts[0] == texts[1] == texts[2]
        payload = json.loads(texts[0])
        assert "out_dir" not in payload["config"]
        assert payload["config"]["ladder_log2"] == [3, 4, 5]

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

    def test_multi_step_run_has_no_verdict_and_exits_0(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "converge",
                "--model", "heat-add",
                "--scheme", "taylor-delta",
                "--paths", "16",
                "--seed", "5",
                "--fine", "8",
                "--ladder", "4,5",
                "--modes", "8",
                "--noise-modes", "8",
                "--multi-step",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        assert "verdict=none (multi-step: no predicted order)" in capsys.readouterr().out
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["verdict"] is None and payload["margin"] is None

    def test_multi_step_shortfall_prints_the_reason_and_exits_0(self, capsys):
        argv = [
            "converge", "--model", "heat-mult", "--fine", "8", "--ladder", "2,3,4",
            "--paths", "6", "--seed", "11", "--modes", "16", "--noise-modes", "16",
            "--multi-step",
        ]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and "slope=none" in out
        assert f"verdict=none ({harness.SHORTFALL_REASON})" in out

    def test_scheme_equal_to_the_reference_has_no_verdict_and_exits_0(self, capsys):
        # On heat-add, exp-euler equals the reference up to rounding: its
        # rows of 3e-17 to 9e-17 lie below the floor, so the CLI prints the
        # reason instead of a slope and exits 0.
        argv = [
            "converge", "--model", "heat-add", "--paths", "50", "--fine", "10",
            "--ladder", "4,5,6,7", "--modes", "16", "--noise-modes", "16",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "slope=none" in out and f"verdict=none ({harness.ROUNDING_REASON})" in out
        assert main(argv + ["--scheme", "taylor-delta"]) == 2
        assert "slope=0.2836" in capsys.readouterr().out

    def test_a_failed_verdict_names_the_side_of_its_window(self, tmp_path, capsys):
        # At seed 2, full-2nd's slope lies above its window and
        # milstein-b0's below.  The printed verdicts say so; report.json
        # keeps "fail" and the bytes of the scheme's own report, and the
        # exit code stays 2.
        out = tmp_path / "study"
        argv = [
            "converge", "--scheme", "full-2nd,milstein-b0", "--paths", "8", "--seed", "2",
            "--fine", "9", "--ladder", "3,4,5", "--modes", "16", "--noise-modes", "16",
            "--out", str(out),
        ]
        assert main(argv) == 2
        stdout = capsys.readouterr().out
        above, rest = stdout.split("\n== milstein-b0 ==\n")
        below, summary = rest.split("\n== summary ==\n")
        assert "verdict=fail (above the window)" in above
        assert "verdict=fail (below the window)" in below
        assert [line.split(maxsplit=5)[5] for line in summary.splitlines()] == [
            "fail (above)", "fail (below)",
        ]
        for name, side in (("full-2nd", 1), ("milstein-b0", -1)):
            report = run_convergence(ExperimentConfig(
                scheme=name, paths=8, seed=2, fine_log2=9, ladder_log2=(3, 4, 5),
                modes=16, noise_modes=16,
            ))
            bound = report.upper_bound if side > 0 else report.lower_bound
            assert report.verdict is False and side * (report.slope - bound) > 0
            text = (out / name / "report.json").read_text()
            assert text == render_json(report) and json.loads(text)["verdict"] == "fail"

    def test_converge_bad_model_is_error(self, capsys):
        code = main(["converge", "--model", "wave", "--paths", "4"])
        assert code == 1
        assert "unknown model" in capsys.readouterr().err

    def test_study_too_large_to_allocate_is_error(self, capsys):
        # 2^56 substeps fit in no address space: the first allocation of
        # that size fails at once, and no traceback is printed.
        code = main(["converge", "--fine", "60", "--ladder", "4", "--paths", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--t-end", "nan", "t_end must be positive and finite"),
         ("--p", "inf", "p_norm must be finite and >= 1"),
         ("--p", "nan", "p_norm must be finite and >= 1")],
    )
    def test_non_finite_value_is_error(self, flag, value, message, capsys):
        code = main(["converge", flag, value, "--paths", "4"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv, usage",
        [
            pytest.param(["--paths", "1"], False, id="argv0"),
            pytest.param(["--ladder", "4,x"], False, id="argv1"),
            pytest.param(["--ladder", "4,4"], False, id="argv2"),
            pytest.param(["--paths", "x"], False, id="argv3"),
            # argparse's own usage error comes after the usage.
            pytest.param(["--bogus", "1"], True, id="argv4"),
        ],
    )
    def test_scheme_list_reports_bad_input(self, argv, usage, capsys):
        # Exit 2 is a failed verdict; bad input must not look like one.
        code = main(["converge", "--scheme", ",".join(CRITERION_3_SCHEMES), *argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("usage: " if usage else "error: ")
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "schemes, failing",
        [(CRITERION_3_SCHEMES, None), (("exp-euler", BRACKETED_WOOD), BRACKETED_WOOD)],
        ids=["criterion-3", "wood-text"],
    )
    def test_scheme_list_writes_each_schemes_one_scheme_report(
        self, schemes, failing, tmp_path, capsys
    ):
        out = tmp_path / "study"
        code = main([
            "converge", "--scheme", ",".join(schemes), "--paths", "8", "--seed", "2024",
            "--fine", "9", "--ladder", "3,4,5", "--out", str(out),
        ])
        stdout, err = capsys.readouterr()
        assert err == ""
        verdicts = {}
        for name in schemes:
            report = run_convergence(ExperimentConfig(
                model="heat-mult", scheme=name, paths=8, seed=2024, fine_log2=9,
                ladder_log2=(3, 4, 5), r=0.005,
            ))
            assert (out / name / "report.json").read_text() == render_json(report)
            assert (out / name / "report.csv").read_text() == render_csv(report)
            assert f"\n== {name} ==\n" in stdout
            verdicts[name] = report.verdict
        summary = stdout.split("\n== summary ==\n")[1].splitlines()
        assert [line.split()[0] for line in summary] == list(schemes)
        assert code == (2 if False in verdicts.values() else 0)
        if failing is not None:
            assert verdicts[failing] is False

    def test_a_scheme_list_names_a_directory_too_long_before_it_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        # A depth-8 expansion's wood text is longer than the usual 255-byte
        # limit on a file name: the list study's error comes before any
        # path is drawn, and no report is written.
        wood = initial_wood()
        for _ in range(8):
            wood = expand(wood, active_nodes(wood)[0])
        text = serialize(wood)
        assert len(text.encode()) > 255
        studies = []
        monkeypatch.setattr(cli, "run_study", lambda *args: studies.append(args))
        out = tmp_path / "study"
        code = main(["converge", "--scheme", f"exp-euler,{text}", "--paths", "4",
                     "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 1 and stdout == "" and studies == []
        assert err.startswith(f"error: [Errno {errno.ENAMETOOLONG}] ")
        assert not list(out.rglob("report.*"))

    @pytest.mark.parametrize("source", ["--scheme", "--config"])
    def test_a_scheme_named_twice_is_error(self, source, tmp_path, capsys):
        # Its two reports would overwrite each other under --out.
        listed = f"exp-euler,{BRACKETED_WOOD},exp-euler"
        config = tmp_path / "twice.cfg"
        config.write_text(f"scheme = {listed}\n")
        code = main(["converge", source, listed if source == "--scheme" else str(config),
                     "--paths", "4"])
        out, err = capsys.readouterr()
        where = "--scheme" if source == "--scheme" else f"{config}:1"
        assert code == 1 and out == ""
        assert err == f"error: {where}: scheme 'exp-euler' is named twice\n"

    @pytest.mark.parametrize("source", ["--scheme", "--config"])
    @pytest.mark.parametrize(
        "listed, number",
        [("exp-euler,,full-2nd", 2), ("exp-euler, ,full-2nd", 2), ("exp-euler,full-2nd,", 3)],
        ids=["between", "blank", "trailing"],
    )
    def test_an_empty_scheme_entry_is_error(self, source, listed, number, tmp_path, capsys):
        config = tmp_path / "empty.cfg"
        config.write_text(f"scheme = {listed}\n")
        code = main(["converge", source, listed if source == "--scheme" else str(config),
                     "--paths", "4"])
        out, err = capsys.readouterr()
        where = "--scheme" if source == "--scheme" else f"{config}:1"
        assert code == 1 and out == ""
        assert err == f"error: {where}: entry {number} of the scheme list {listed!r} is empty\n"

    def test_a_flag_scheme_list_strips_its_entries(self):
        # As the ladder does: "taylor-delta, exp-euler" names two builtins.
        args = build_parser().parse_args([
            "converge", "--scheme", f"taylor-delta, exp-euler ,  {BRACKETED_WOOD}",
            "--ladder", "2, 3, 4",
        ])
        config, schemes, _ = _converge_config(args)
        assert schemes == ("taylor-delta", "exp-euler", BRACKETED_WOOD)
        assert (config.scheme, config.ladder_log2) == ("taylor-delta", (2, 3, 4))

    @pytest.mark.parametrize("source", ["--ladder", "--config"])
    @pytest.mark.parametrize(
        "listed, message",
        [
            ("4,,5", "entry 2 of the ladder '4,,5' is empty"),
            ("4, ,5", "entry 2 of the ladder '4, ,5' is empty"),
            ("4,5,", "entry 3 of the ladder '4,5,' is empty"),
            ("4 5", "bad ladder '4 5': entry 1, '4 5', is not plain decimal digits"),
            ("4_5", "bad ladder '4_5': entry 1, '4_5', is not plain decimal digits"),
            ("3, 4_5", "bad ladder '3, 4_5': entry 2, '4_5', is not plain decimal digits"),
        ],
        ids=["between", "blank", "trailing", "spaced", "underscored", "underscored-second"],
    )
    def test_a_ladder_entry_that_is_not_one_number_is_error(
        self, source, listed, message, tmp_path, capsys
    ):
        # "4 5" is two numbers with no comma, not 45, and so is "4_5",
        # although int() reads its digit-group underscore as 45.
        config = tmp_path / "ladder.cfg"
        config.write_text(f"ladder = {listed}\n")
        code = main(["converge", source, listed if source == "--ladder" else str(config),
                     "--paths", "4"])
        out, err = capsys.readouterr()
        where = "--ladder" if source == "--ladder" else f"{config}:1"
        assert code == 1 and out == ""
        assert err == f"error: {where}: {message}\n"

    def test_a_config_scheme_list_splits_at_commas_outside_brackets(self, tmp_path):
        config = tmp_path / "list.cfg"
        for separator in (",", " , "):
            config.write_text(
                f"scheme = exp-euler{separator}(1[0,2[0,1]]);(2*){separator}{BRACKETED_WOOD}\n"
            )
            assert load_config_file(str(config))["scheme"] == (
                "exp-euler", "(1[0,2[0,1]]);(2*)", BRACKETED_WOOD,
            )
        config.write_text("scheme = exp-euler,,full-2nd\n")
        message = "entry 2 of the scheme list 'exp-euler,,full-2nd' is empty"
        with pytest.raises(ConfigError, match=re.escape(f"{config}:1: {message}")):
            load_config_file(str(config))

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
            ("paths 8", "expected key = value"),
        ],
    )
    def test_config_file_value_error_names_the_line(self, tmp_path, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"seed = 5\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{config}:2: {message}")):
            load_config_file(str(config))

    @pytest.mark.parametrize("word", ["0", "false", "No", " off "])
    def test_config_file_false_words(self, tmp_path, word):
        config = tmp_path / "run.cfg"
        config.write_text(f"multi_step = {word}\n")
        assert load_config_file(str(config))["multi_step"] is False

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

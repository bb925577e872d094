"""Verification suites behind the oracle-check command and acceptance
tests A1–A4, plus the random world generators they (and the test suite)
share.  A1–A4 call the suites with their pinned seeds and counts; the
oracle-check command runs them with the defaults.

Every check compares an implementation path against an independent
ground truth: closed-form schedule values, the linear-ODE argument for
point-mass worlds, exact posterior enumeration (including enumeration
against the forward-backward denoisers of Markov worlds), the
algebraic identities of the combination rule, or the full-rate AMPD
scalogram, searched over the windows that ``dsp.ampd_window_plan`` lays
out for peak detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _epoch_marginals, ampd_local_maxima
from .dsp import (
    AMPD_OVERLAP_S,
    AMPD_WINDOW_S,
    KINDS,
    RATE_CATEGORIES,
    TARGET_FS,
    RawSignal,
    SignalKind,
    ampd_scale,
    ampd_search,
    ampd_window_plan,
    preprocess,
)
from .hypno import Hypnogram, SleepStage, one_hot
from .oracle import (
    ENUMERATION_CAP,
    PRIOR,
    CategoricalEmission,
    ExplicitPrior,
    MarkovPrior,
    WorldModel,
    enumerate_posterior,
    exact_bank,
    exact_denoiser,
    exact_smoothed_score,
    log_prior_table,
)
from .sampler import SamplerConfig, sample_many
from .sched import ScheduleParams, time_steps
from .scorekit import ABSENT, Features, fsdm_combine_batch, fsdm_denoise_batch, tweedie_score
from .synth import WaveformSpec, render_waveform


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float | None  # None = measured only, no bound asserted
    measured: float

    @property
    def passed(self) -> bool:
        return self.tolerance is None or self.measured <= self.tolerance


# -- world generators ---------------------------------------------------------


def informative_emission(rng: np.random.Generator, base: float = 0.96,
                         jitter: float = 0.01) -> CategoricalEmission:
    """Categorical emission whose symbol mostly identifies the stage."""
    table = np.full((5, 5), (1.0 - base) / 4)
    np.fill_diagonal(table, base)
    table = table + rng.uniform(0.0, jitter, (5, 5))
    table /= table.sum(axis=1, keepdims=True)
    return CategoricalEmission(table)


def uniform_emission(n_symbols: int = 5) -> CategoricalEmission:
    """Zero-evidence emission: every stage emits every symbol equally."""
    return CategoricalEmission(np.full((5, n_symbols), 1.0 / n_symbols))


def persistent_markov(rng: np.random.Generator, persistence: float = 0.5) -> MarkovPrior:
    init = rng.dirichlet(np.full(5, 5.0))
    trans = np.full((5, 5), (1.0 - persistence) / 4)
    np.fill_diagonal(trans, persistence)
    trans = trans + rng.uniform(0.0, 0.03, (5, 5))
    trans /= trans.sum(axis=1, keepdims=True)
    return MarkovPrior(init, trans)


def sparse_markov(rng: np.random.Generator, zero_frac: float = 0.3) -> MarkovPrior:
    """Persistent Markov prior with some transitions and one initial
    stage at probability zero; the diagonal stays positive."""
    dense = persistent_markov(rng)
    trans = np.where(rng.random((5, 5)) < zero_frac, 0.0, dense.transition)
    np.fill_diagonal(trans, dense.transition.diagonal())
    init = dense.initial.copy()
    init[rng.integers(5)] = 0.0
    return MarkovPrior(init / init.sum(), trans / trans.sum(axis=1, keepdims=True))


def explicit_twin(world: WorldModel) -> WorldModel:
    """The same world with its prior written out as a 5^E table."""
    table = ExplicitPrior(np.exp(log_prior_table(world)))
    return WorldModel(world.n_epochs, table, world.sensors)


def random_explicit_prior(rng: np.random.Generator, n_epochs: int) -> ExplicitPrior:
    table = rng.gamma(1.0, 1.0, 5**n_epochs) + 0.05
    return ExplicitPrior(table / table.sum())


def random_world(n_epochs: int, n_sensors: int, rng: np.random.Generator,
                 base: float = 0.96, markov: bool = True) -> WorldModel:
    prior = persistent_markov(rng) if markov else random_explicit_prior(rng, n_epochs)
    sensors = tuple(
        (f"s{i}", informative_emission(rng, base)) for i in range(n_sensors)
    )
    return WorldModel(n_epochs, prior, sensors)


def single_atom_world(h: Hypnogram) -> WorldModel:
    """Point-mass prior on one hypnogram, no sensors."""
    n_epochs = len(h)
    table = np.zeros(5**n_epochs)
    table[hypnogram_index(h)] = 1.0
    return WorldModel(n_epochs, ExplicitPrior(table))


def stage_observations(world: WorldModel, h: Hypnogram) -> dict[str, np.ndarray]:
    """Observations where each sensor reports its stage-identifying symbol."""
    seq = h.to_indices().astype(np.float64)
    return {name: seq.copy() for name, _ in world.sensors}


def posterior_marginals(world: WorldModel, post: np.ndarray) -> np.ndarray:
    """Per-epoch stage marginals of an enumerated posterior table (5×E)."""
    return _epoch_marginals(np.reshape(post, (5,) * world.n_epochs))


def hypnogram_index(h: Hypnogram) -> int:
    """Flat index of ``h`` in the C-order (5,)*E hypnogram tensor."""
    return int(np.ravel_multi_index(h.to_indices(), (5,) * len(h)))


def near_vertex_states(rng: np.random.Generator, h: Hypnogram, n_points: int,
                       radius: float = 0.05) -> np.ndarray:
    """An (n_points, 5, E) batch of states within ``radius`` of onehot(h)."""
    base = one_hot(h).values
    out = []
    for _ in range(n_points):
        u = rng.standard_normal(base.shape)
        u /= np.linalg.norm(u)
        out.append(base + u * rng.uniform(0.0, radius))
    return np.stack(out)


def _stage_waveform(kind: SignalKind, n_epochs: int, rng: np.random.Generator,
                    rates: tuple[float, ...], fs: float, jitter_sd: float,
                    pulse_width_s: float) -> RawSignal:
    """A waveform of n_epochs random-stage epochs at the stages' event
    rates, scaled so that the kind's scaling maps it to ~1."""
    spec = WaveformSpec(
        stage_rates=dict(zip(SleepStage, rates)),
        base_amplitude=1.0 / kind.scale, noise_sd=0.02 / kind.scale, fs=fs,
        jitter_sd=jitter_sd, pulse_width_s=pulse_width_s, kind_name=kind.name,
    )
    h = Hypnogram.from_indices(rng.integers(0, 5, n_epochs))
    return RawSignal(render_waveform(h, spec, rng), spec.fs, kind)


def breathing_signal(kind: SignalKind, n_epochs: int, rng: np.random.Generator) -> RawSignal:
    """A 32 Hz breathing waveform of n_epochs random-stage epochs (0.22 to
    0.33 breaths/s), scaled so that the kind's scaling maps it to ~1."""
    return _stage_waveform(kind, n_epochs, rng, (0.33, 0.29, 0.25, 0.22, 0.31), 32.0,
                           jitter_sd=0.05, pulse_width_s=1.5)


def pulse_signal(kind: SignalKind, n_epochs: int, rng: np.random.Generator) -> RawSignal:
    """A 64 Hz pulse waveform of n_epochs random-stage epochs (0.90 to
    1.25 beats/s), scaled so that the kind's scaling maps it to ~1."""
    return _stage_waveform(kind, n_epochs, rng, (1.25, 1.10, 1.00, 0.90, 1.15), 64.0,
                           jitter_sd=0.01, pulse_width_s=0.3)


# -- suites -------------------------------------------------------------------


def suite_schedule() -> list[CheckResult]:
    ts = time_steps(ScheduleParams())
    results = [
        CheckResult("schedule.t0_equals_sigma_max", 0.0, abs(ts[0] - 40.0)),
        CheckResult("schedule.t31_equals_sigma_min", 0.0, abs(ts[31] - 1e-4)),
        CheckResult("schedule.t32_equals_zero", 0.0, abs(ts[32])),
    ]
    # time_steps already rejects a grid that is not strictly decreasing.
    results.append(CheckResult("schedule.strictly_decreasing", 0.0,
                               float(np.max(np.diff(ts)))))
    return results


def suite_single_atom(seed: int = 0, n_worlds: int = 6, n_seeds: int = 2) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for w in range(n_worlds):
        n_epochs = 1 + w % 6
        h = Hypnogram.from_indices(rng.integers(0, 5, n_epochs))
        bank = exact_bank(single_atom_world(h))
        target = one_hot(h).values
        for s in range(n_seeds):
            cfg = SamplerConfig(n_samples=1, base_seed=100 * w + s)
            y = sample_many(bank, [], cfg, n_epochs).states[0]
            worst = max(worst, float(np.abs(y - target).max()))
    return [CheckResult("single_atom.inf_norm", 1e-6, worst)]


def suite_posterior(seed: int | np.random.Generator = 0, n_worlds: int = 2,
                    n_samples: int = 1024) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    for w in range(n_worlds):
        world = random_world(4, 1, rng)
        h = Hypnogram.from_indices(rng.integers(0, 5, 4))
        obs = stage_observations(world, h)
        post = enumerate_posterior(world, obs)
        bank = exact_bank(world)
        obs_list = [("s0", Features(obs["s0"]))]
        cfg = SamplerConfig(n_samples=n_samples, base_seed=w, lam=1.0)
        counts = np.zeros(post.size)
        for stages in np.argmax(sample_many(bank, obs_list, cfg, 4).states, axis=1):
            counts[hypnogram_index(Hypnogram.from_indices(stages))] += 1
        tv = float(0.5 * np.abs(counts / n_samples - post).sum())
        results.append(CheckResult(f"posterior.tv_world{w}", 0.1, tv))
    return results


def suite_factorization(seed: int = 0, n_worlds: int = 4, n_points: int = 20) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    by_sigma: dict[float, list[float]] = {0.01: [], 1.0: [], 10.0: []}
    for _ in range(n_worlds):
        world = random_world(4, 2, rng)
        h = Hypnogram.from_indices(rng.integers(0, 5, 4))
        obs = stage_observations(world, h)
        bank = exact_bank(world)
        obs_list = [(name, Features(seq)) for name, seq in obs.items()]
        ys = near_vertex_states(rng, h, n_points)
        for sigma, rel in by_sigma.items():
            s_f = tweedie_score(fsdm_denoise_batch(ys, sigma, bank, obs_list, lam=1.0), ys, sigma)
            s_j = exact_smoothed_score(world, obs, ys, sigma)
            rel.extend(float(np.linalg.norm(f - j) / np.linalg.norm(j)) for f, j in zip(s_f, s_j))
    results = [CheckResult("factorization.rel_l2_sigma_0.01", 1e-3, max(by_sigma[0.01]))]
    for sigma in (1.0, 10.0):
        results.append(CheckResult(f"factorization.rel_l2_sigma_{sigma:g}", None,
                                   float(np.median(by_sigma[sigma]))))
    return results


def suite_identities(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    world = random_world(4, 1, rng)
    h = Hypnogram.from_indices([0, 2, 4, 1])
    obs_seq = stage_observations(world, h)["s0"]
    cond = Features(obs_seq)
    bank = exact_bank(world)
    likelihood = exact_denoiser(world, "s0")
    results = []

    worst_identity = 0.0
    worst_dup = 0.0
    worst_colsum = 0.0
    for _ in range(10):
        ys = rng.standard_normal((5, 4))[None]
        sigma = float(rng.uniform(0.2, 4.0))
        single = fsdm_denoise_batch(ys, sigma, bank, [("s0", cond)])
        direct = likelihood.evaluate_batch(ys, cond, sigma)
        worst_identity = max(worst_identity, float(np.abs(single - direct).max()))
        for k in (2, 4, 8):
            dup = fsdm_denoise_batch(ys, sigma, bank, [("s0", cond)] * k)
            worst_dup = max(worst_dup, float(np.abs(dup - single).max()))
        combined = fsdm_combine_batch(ys, sigma, bank, [("s0", cond)])
        worst_colsum = max(worst_colsum, float(np.abs(combined.sum(axis=-2) - 1.0).max()))
    results.append(CheckResult("identities.n1_equals_likelihood", 1e-12, worst_identity))
    results.append(CheckResult("identities.duplication_invariance", 1e-12, worst_dup))
    results.append(CheckResult("identities.column_sums_pre_projection", 1e-9, worst_colsum))

    post = enumerate_posterior(world, {"s0": obs_seq})
    marg = posterior_marginals(world, post)
    big = likelihood.evaluate_batch(one_hot(h).values[None], cond, 1e6)[0]
    err = float(np.abs(big - marg).max())
    results.append(CheckResult("identities.large_sigma_prior_marginals", 1e-6, err))
    return results


def suite_forward_backward(seed: int = 0, n_worlds: int = 8,
                           batch: int = 3) -> list[CheckResult]:
    """Forward-backward denoisers of Markov worlds against enumeration of
    their explicit twins, for E = 1..8, σ from 1e-4 to 40 and priors
    with zero entries.

    The bound applies to states drawn from N(0, I).  States within σ of
    a vertex are measured only: at small σ their log weights span
    ~1/σ², and a near-tie between two hypnograms turns the rounding of
    either path into differences of order 1e-12.  A deterministic sensor
    observes a sequence the prior forbids in every other world; both
    paths must reject exactly the same cases.  The same sensor also sees
    an allowed path at every other epoch.

    A bank of both sensors, observing h and the allowed path on the
    N(0, I) states, checks the stacked bank evaluation: its combined
    estimate on a Markov world against the same bank on the explicit
    twin (bound as above), and against the N+1 separate
    ``evaluate_batch`` calls on both worlds (measured only; the stacking
    is exact, so it reads 0).
    """
    rng = np.random.default_rng(seed)
    worst = worst_vertex = worst_bank = worst_stacked = 0.0
    disagreements = 0
    for w in range(n_worlds):
        n_epochs = 1 + w % ENUMERATION_CAP
        sparse = w % 2 == 1
        prior = sparse_markov(rng) if sparse else persistent_markov(rng)
        sensors = (("s0", informative_emission(rng, 0.8)),
                   ("det", CategoricalEmission(np.eye(5))))
        world = WorldModel(n_epochs, prior, sensors)
        twin = explicit_twin(world)
        h = rng.integers(0, 5, n_epochs)
        forced = rng.integers(0, 5, n_epochs).astype(np.float64)
        if sparse:
            forced[0] = np.argmin(prior.initial)
        # A path the prior allows, seen at even epochs: next to a seen
        # epoch, the stages a zero transition rules out have no weight.
        path = [rng.choice(5, p=prior.initial)]
        for _ in range(n_epochs - 1):
            path.append(rng.choice(5, p=prior.transition[path[-1]]))
        seen = np.where(np.arange(n_epochs) % 2 == 0, path, np.nan)
        targets = ((PRIOR, ABSENT), ("s0", Features(h.astype(np.float64))),
                   ("s0", ABSENT), ("det", Features(forced)), ("det", Features(seen)))
        pairs = [(cond, exact_denoiser(world, t), exact_denoiser(twin, t)) for t, cond in targets]
        banks = (exact_bank(world), exact_bank(twin))
        bank_obs = [("s0", targets[1][1]), ("det", targets[4][1])]
        vertex = one_hot(Hypnogram.from_indices(h)).values
        sigmas = (1e-4, 1e-2, 0.3, 1.0, 40.0, float(np.exp(rng.uniform(np.log(1e-4), np.log(40.0)))))
        for sigma in sigmas:
            ys = np.concatenate([
                rng.standard_normal((batch, 5, n_epochs)),
                vertex + sigma * rng.standard_normal((batch, 5, n_epochs)),
            ])
            evaluated = []
            for cond, *denoisers in pairs:
                outs = []
                for denoiser in denoisers:
                    try:
                        outs.append(denoiser.evaluate_batch(ys, cond, sigma))
                    except ValueError:
                        outs.append(None)
                evaluated.append(outs)
                if (outs[0] is None) != (outs[1] is None):
                    disagreements += 1
                elif outs[0] is not None:
                    diff = np.abs(outs[0] - outs[1]).max(axis=(1, 2))
                    worst = max(worst, float(diff[:batch].max()))
                    worst_vertex = max(worst_vertex, float(diff[batch:].max()))
            # The bank runs on the N(0, I) states only, to spare the 5^8
            # enumeration; every kernel treats batch items independently.
            prior, lik_s0, lik_det = ([out[:batch] for out in evaluated[i]] for i in (0, 1, 4))
            combined = []
            for k, bank in enumerate(banks):
                separate = prior[k] + 0.5 * (lik_s0[k] - prior[k])
                separate = separate + 0.5 * (lik_det[k] - prior[k])
                combined.append(fsdm_combine_batch(ys[:batch], sigma, bank, bank_obs))
                worst_stacked = max(worst_stacked, float(np.abs(combined[k] - separate).max()))
            worst_bank = max(worst_bank, float(np.abs(combined[0] - combined[1]).max()))
    return [
        CheckResult("forward_backward.max_abs_vs_enumeration", 1e-12, worst),
        CheckResult("forward_backward.max_abs_near_vertex", None, worst_vertex),
        CheckResult("forward_backward.zero_weight_disagreements", 0.0, float(disagreements)),
        CheckResult("forward_backward.bank_combined_vs_enumeration", 1e-12, worst_bank),
        CheckResult("forward_backward.bank_stacked_vs_separate", None, worst_stacked),
    ]


def suite_ampd(seed: int = 0, n_epochs: int = 40) -> list[CheckResult]:
    """AMPD's band-limited scale search against the full scalogram, window
    by window, on synthetic cardiac (``finger_ppg``, ``ecg``) and
    respiratory (``rip_belt``, ``thermistor``, ``nasal_cannula``,
    ``pap_flow``) recordings through ``preprocess``.  The windows, their
    scales and the search are the ones ``preprocess`` gives ``ampd_peaks``:
    ``dsp.ampd_window_plan`` at the default windows, and the category's
    scale cap and search band.

    The peak masks at the two scales must agree in every window.  The
    scales themselves are measured only: where the scalogram is flat
    near its minimum, two scales can give the same mask.
    """
    rng = np.random.default_rng(seed)
    differ_peaks = differ_scale = 0
    for kind_name, signal in (("finger_ppg", pulse_signal), ("ecg", pulse_signal),
                              ("rip_belt", breathing_signal), ("thermistor", breathing_signal),
                              ("nasal_cannula", breathing_signal),
                              ("pap_flow", breathing_signal)):
        raw = signal(KINDS[kind_name], n_epochs, rng)
        x = preprocess(raw, target_epochs=n_epochs).samples
        cap, _, search_hz = RATE_CATEGORIES[raw.kind.category]
        decimation, lowpass = ampd_search(TARGET_FS, search_hz)
        length, starts, max_scale = ampd_window_plan(
            x.size, TARGET_FS, AMPD_WINDOW_S, AMPD_OVERLAP_S, cap)
        for a in starts:
            w = x[a:a + length]
            exact = ampd_scale(w, max_scale)
            fast = ampd_scale(w, max_scale, decimation, lowpass)
            differ_scale += exact != fast
            differ_peaks += not np.array_equal(ampd_local_maxima(w, exact),
                                               ampd_local_maxima(w, fast))
    return [
        CheckResult("ampd.windows_with_different_peaks", 0.0, float(differ_peaks)),
        CheckResult("ampd.windows_with_different_scale", None, float(differ_scale)),
    ]


SUITES = {
    "schedule": suite_schedule,
    "single_atom": suite_single_atom,
    "posterior": suite_posterior,
    "factorization": suite_factorization,
    "identities": suite_identities,
    "forward_backward": suite_forward_backward,
    "ampd": suite_ampd,
}


def run_suites(names: list[str]) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r} (have {sorted(SUITES)})")
        results.extend(SUITES[name]())
    return results

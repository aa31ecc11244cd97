"""Self-contained correctness suites for the ``verify`` command.

Each check recomputes its expected value from scratch (enumeration,
closed forms, finite differences) rather than trusting the code under
test, and reports a one-line pass/fail verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .logsig import (
    LyndonBasis,
    chen_mul,
    lyndon_dimension,
    lyndon_project,
    sig_linear,
    sig_polyline,
    tensor_log,
)
from .model import VARIANTS, ModelConfig
from .solver import METHODS, SolveSpec, convergence_order
from .training import gradcheck

CHEN_PATHS = 100  # random polylines in ``suite_logsig``'s concatenation check
LOGSIG_SEED = 0  # the seed that draws them


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _lyndon_by_rotation(dim: int, max_len: int) -> list[tuple[int, ...]]:
    """Brute-force enumeration: a word is Lyndon iff it is strictly
    smaller than every proper rotation."""
    words = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        frontier = [w + (c,) for w in frontier for c in range(dim)]
        for w in frontier:
            if all(w < w[k:] + w[:k] for k in range(1, len(w))):
                words.append(w)
    return words


def suite_logsig() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(LOGSIG_SEED)

    # basis sizes against brute-force enumeration
    expected_sizes = {(2, 2): 3, (2, 3): 5, (3, 2): 6, (2, 4): 8}
    for (d, depth), expected in expected_sizes.items():
        enumerated = len(_lyndon_by_rotation(d, depth))
        computed = lyndon_dimension(d, depth)
        basis = len(LyndonBasis(d, depth).words)
        ok = enumerated == computed == basis == expected
        results.append(
            CheckResult(
                f"lyndon basis size d={d} depth={depth}",
                ok,
                f"enumerated {enumerated}, formula {computed}, basis {basis}",
            )
        )

    # concatenation identity on random polylines
    worst = 0.0
    for i in range(CHEN_PATHS):
        d = 2 if i % 2 == 0 else 3
        a = rng.normal(size=(4, d))
        b = np.concatenate([a[-1:], rng.normal(size=(3, d))])
        whole = sig_polyline(np.concatenate([a, b[1:]]), depth=3)
        glued = chen_mul(sig_polyline(a, 3), sig_polyline(b, 3))
        for lw, lg in zip(whole.levels, glued.levels):
            worst = max(worst, float(np.abs(lw - lg).max()))
    results.append(
        CheckResult(
            f"concatenation identity ({CHEN_PATHS} polylines)",
            worst < 1e-9,
            f"max deviation {worst:.2e} (tol 1e-9)",
        )
    )

    # a straight chord has no log-signature content above level 1
    worst = 0.0
    for _ in range(20):
        log = tensor_log(sig_linear(rng.normal(size=3), depth=3))
        worst = max(worst, max(float(np.abs(l).max()) for l in log.levels[1:]))
    results.append(
        CheckResult(
            "single chord is level-1 only",
            worst < 1e-12,
            f"max higher-level coordinate {worst:.2e} (tol 1e-12)",
        )
    )

    # shuffle identity S1*S2 = S12 + S21
    worst = 0.0
    for _ in range(20):
        sig = sig_polyline(rng.normal(size=(6, 2)), depth=2)
        s1, s2 = sig.levels[0]
        s12, s21 = sig.levels[1][0, 1], sig.levels[1][1, 0]
        worst = max(worst, abs(s1 * s2 - (s12 + s21)))
    results.append(
        CheckResult(
            "shuffle identity S1*S2 = S12 + S21",
            worst < 1e-10,
            f"max deviation {worst:.2e} (tol 1e-10)",
        )
    )

    # signed area of (t, t^2) on [0, 1] is 1/6
    t = np.linspace(0.0, 1.0, 4001)
    sig = sig_polyline(np.stack([t, t**2], axis=1), depth=2)
    area = 0.5 * (sig.levels[1][0, 1] - sig.levels[1][1, 0])
    err = abs(area - 1.0 / 6.0)
    results.append(
        CheckResult("parabola signed area = 1/6", err < 1e-6, f"area {area:.9f}, err {err:.2e}")
    )

    # projecting to the basis and expanding back is lossless
    basis = LyndonBasis(2, 3)
    log = tensor_log(sig_polyline(rng.normal(size=(5, 2)), depth=3))
    coords = lyndon_project(log, basis)
    rebuilt = [np.zeros_like(level) for level in log.levels]
    for c, word, expansion in zip(coords, basis.words, basis.expansions):
        rebuilt[len(word) - 1] += c * expansion
    worst = max(float(np.abs(r - l).max()) for r, l in zip(rebuilt, log.levels))
    results.append(
        CheckResult(
            "lyndon projection round trip",
            worst < 1e-12,
            f"{coords.size} coordinates, max deviation {worst:.2e} (tol 1e-12)",
        )
    )
    return results


def suite_grad() -> list[CheckResult]:
    """End-to-end gradient checks over every variant x method: 6 checks
    with three variants and two methods."""
    results = []
    for variant, method in ((v, m) for v in VARIANTS for m in METHODS):
        cfg = ModelConfig(
            num_nodes=4,
            input_len=6,
            horizon=2,
            dim_h=4,
            dim_z=4,
            num_layers=1,
            embed_dim=2,
            sig_depth=2,
            subpath_len=2,
            variant=variant,
        )
        rep = gradcheck(cfg, SolveSpec(method=method, steps_per_window=2), seed=7)
        results.append(
            CheckResult(
                f"gradcheck {variant}/{method}",
                rep.passed,
                f"max rel err {rep.max_rel_err:.2e} over {rep.entries_checked} entries "
                f"(worst {rep.worst_param}, tol 1e-4)",
            )
        )
    return results


def suite_solver() -> list[CheckResult]:
    results = []
    for method, target, band in (("euler", 1.0, 0.2), ("rk4", 4.0, 0.5)):
        slope = convergence_order(method)
        results.append(
            CheckResult(
                f"{method} convergence order",
                abs(slope - target) <= band,
                f"measured {slope:.4f}, expected {target} +/- {band}",
            )
        )
    return results


SUITES = {"logsig": suite_logsig, "grad": suite_grad, "solver": suite_solver}


def run_suites(which: str = "all") -> list[CheckResult]:
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ConfigError(f"unknown suite {which!r}; choose from {list(SUITES)} or 'all'")
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name]())
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)

"""Quasi-Newton subspace iteration with arbitrary nonzero step sizes.

Each iteration moves by any nonzero step length alpha along the direction
of the approximation that copies the Hessian on the newest conjugate
direction q and the restricted Newton step pN, and is sigma I elsewhere. That
direction is pN plus the upcoming conjugate direction over sigma, so no
operator is built. pN, q and their Hessian images obey closed-form
recursions, so each iteration needs one new Hessian image, that of the step:
from H itself, or matrix-free from the gradient difference the step produces.
With H, the gradient is carried too, as g + alpha Hp (see :func:`_iterate`),
so either way an iteration makes one oracle call.

Finite termination does not need exact line search: once the generated
subspace reaches its grade r, every direction is the full Newton step, and
taking a unit step at any iteration k >= r lands exactly on the minimizer.

:func:`_iterate` is the one loop of this method and of the baselines: a
direction rule supplies p and keeps its state, and the loop does the rest.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, NotPositiveDefiniteError, PolicyError
from .trace import BREAKDOWN, CONVERGED, MAX_ITER, IterateRecord, IterateTrace
from .util import _integer, _real, check_run_limits, norm

ORACLE = "oracle"
MATRIX_FREE = "matrix-free"

# Never called: the traced benchmark looks both names up on this module and
# wraps them. ROADMAP item 1 drops them with the benchmark's lookup.
SpanApprox = build_two_vector = None

# Steps sampled at random keep away from zero by at least this much.
MIN_RANDOM_STEP = 0.05

# ||p - newton_prev|| below this fraction of ||p|| + ||newton_prev|| means
# the generated subspace is complete: the direction is the restricted Newton
# step itself and the difference is rounding noise. An absolute term in the
# scale, such as 1 + ||x||, fires while |g| is still above tolerance: at
# cond 10, grade 16, n = 512 it fired at relative |g| 4.5e-9, and the unit
# step along the stale Newton step raised |g| to 1.7e-8, a breakdown. The
# same fraction of the terms of the upcoming direction marks it as noise.
EXHAUSTED_RTOL = 1e-8

# Relative floor for q'Hq against ||q|| ||Hq||; below it the curvature along
# q is numerically degenerate.
CURVATURE_RTOL = 1e-14


def newton_scaling(g, q, h_q):
    """Coefficient b = -g'q / q'Hq making x + b q stationary along q."""
    curv = float(q @ h_q)
    if curv <= 0.0:
        raise NotPositiveDefiniteError(
            f"direction has nonpositive curvature q'Hq = {curv:.3e}"
        )
    return -float(g @ q) / curv


def _upcoming_direction(g_hat, q, h_q):
    """(c, -g_hat + c q): the next direction conjugate to q from the gradient
    g_hat at the minimizer along q, c = g_hat'Hq / q'Hq, or 0 while q = 0 (the
    solver's q before its first step and once its span is exhausted)."""
    q_h_q = float(q @ h_q)
    coef = float(g_hat @ h_q) / q_h_q if q_h_q > 0.0 else 0.0
    return coef, -g_hat + coef * q


def _newton_value(image, x, g, h_newton_step, q, h_q, exhausted):
    """The termination-forcing sigma = -q_up'H q_up / q_up'g, which makes the
    next solve a full Newton step. q_up is the upcoming conjugate direction
    at the iterate x with gradient g, and sigma the reciprocal of its Newton
    scaling there, so positive in any consistent state; ``image(x, g, v)``
    gives Hv. DegenerateBasisError when q_up is rounding noise (the span is
    complete, though exhaustion is not yet flagged), when q_up'g vanishes,
    and where rounding makes sigma nonpositive or not finite.
    """
    if exhausted:
        raise DegenerateBasisError(
            "subspace already complete: no scaling changes the step"
        )
    g_hat = g + h_newton_step
    coef, q_up = _upcoming_direction(g_hat, q, h_q)
    g_norm, q_up_norm = norm(g), norm(q_up)
    floor = EXHAUSTED_RTOL * (g_norm + norm(h_newton_step))
    if q_up_norm <= floor:
        raise DegenerateBasisError(f"upcoming direction {q_up_norm:.3e} is "
                                   f"below the exhaustion floor {floor:.3e}")
    h_q_up = -image(x, g, g_hat) + coef * h_q
    slope = float(q_up @ g)
    if abs(slope) <= 1e-300 or abs(slope) <= 1e-15 * q_up_norm * g_norm:
        raise DegenerateBasisError(
            "q'g vanishes: the point is already optimal over the extended span"
        )
    sigma = -float(q_up @ h_q_up) / slope
    if not 0.0 < sigma < np.inf:
        raise DegenerateBasisError(f"Newton scaling {sigma:.4g} is not a finite "
                                   "positive number")
    return sigma


# A row of a policy kind table: the name of the public constructor, which holds
# every default and check; the spec fields it needs; every spec field besides
# the kind; the rule (policy, k, probe, rng) -> value at iteration k; the label.
# ``probe()`` is the one value a rule may ask of the iterate: the exact step
# for a step policy, the termination-forcing scaling for a sigma policy.
_Kind = namedtuple("_Kind", "build required fields rule label")


class _TablePolicy:
    """``spec``, its inverse ``from_spec`` and ``descriptor``, read from ``_kinds``."""

    @classmethod
    def from_spec(cls, spec):
        if not isinstance(spec, dict):
            raise PolicyError(f"{cls._what} policy must be an object")
        kind = spec.get("kind", cls._default_kind)
        if not isinstance(kind, str) or kind not in cls._kinds:
            raise PolicyError(f"unknown {cls._what} policy kind {kind!r}")
        entry = cls._kinds[kind]
        for name in spec:
            if name not in ("kind", *entry.fields):
                raise PolicyError(f"{kind} {cls._what} policy has unknown field {name!r}, "
                                  f"allowed: {', '.join(('kind', *entry.fields))}")
        for name in entry.required:
            if name not in spec:
                raise PolicyError(f"{kind} {cls._what} needs {name!r}")
        return getattr(cls, entry.build)(
            **{name: spec[name] for name in entry.fields if name in spec})

    def spec(self):
        d = {"kind": self.kind}
        for name in self._kinds[self.kind].fields:
            value = getattr(self, name)
            d[name] = list(value) if isinstance(value, tuple) else value
        return d

    def descriptor(self):
        return self._kinds[self.kind].label(self)


@dataclass(frozen=True)
class StepPolicy(_TablePolicy):
    """Step length rule. Never emits zero.

    kinds: "unit", "constant", "uniform" (random in [lo, hi] rejecting
    |alpha| < 0.05), "exact" (exact line search), "schedule" (fixed list),
    "unit-after" (random before iteration ``start``, one from it onward).
    """

    kind: str
    value: float | None = None
    lo: float = 0.1
    hi: float = 2.0
    values: tuple = ()
    start: int = 0

    _what = "step"
    _default_kind = "unit"
    _kinds = {
        "unit": _Kind("unit", (), (), lambda pol, k, probe, rng: 1.0,
                      lambda pol: pol.kind),
        "constant": _Kind("constant", ("value",), ("value",),
                          lambda pol, k, probe, rng: pol.value,
                          lambda pol: f"constant[{pol.value:g}]"),
        "uniform": _Kind("uniform", (), ("lo", "hi"),
                         lambda pol, k, probe, rng: pol._draw(rng),
                         lambda pol: f"uniform[{pol.lo:g}:{pol.hi:g}]"),
        "exact": _Kind("exact_line_search", (), (),
                       lambda pol, k, probe, rng: probe(), lambda pol: pol.kind),
        "schedule": _Kind(
            "schedule", ("values",), ("values",),
            lambda pol, k, probe, rng: pol._scheduled(k),
            lambda pol: "schedule[" + ":".join(f"{v:g}" for v in pol.values) + "]"),
        "unit-after": _Kind(
            "unit_after", ("start",), ("start", "lo", "hi"),
            lambda pol, k, probe, rng: 1.0 if k >= pol.start else pol._draw(rng),
            lambda pol: f"unit-after[{pol.start}]"),
    }

    @classmethod
    def unit(cls):
        return cls(kind="unit")

    @classmethod
    def constant(cls, value):
        value = _real("value", value)
        if value == 0.0:
            raise PolicyError("constant step must be nonzero")
        return cls(kind="constant", value=value)

    @classmethod
    def uniform(cls, lo=0.1, hi=2.0):
        lo, hi = _real("lo", lo), _real("hi", hi)
        if hi <= lo:
            raise PolicyError(f"empty step range [{lo}, {hi}]")
        if max(abs(lo), abs(hi)) < MIN_RANDOM_STEP:
            raise PolicyError(
                f"range [{lo}, {hi}] lies entirely inside the rejected band "
                f"(-{MIN_RANDOM_STEP}, {MIN_RANDOM_STEP})"
            )
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def exact_line_search(cls):
        return cls(kind="exact")

    @classmethod
    def schedule(cls, values):
        try:
            values = tuple(_real("schedule step", v) for v in values)
        except TypeError:
            raise PolicyError(f"schedule must be a list, got {values!r}") from None
        if not values:
            raise PolicyError("schedule must not be empty")
        if any(v == 0.0 for v in values):
            raise PolicyError("schedule contains a zero step")
        return cls(kind="schedule", values=values)

    @classmethod
    def unit_after(cls, start, lo=0.1, hi=2.0):
        start = _integer("start", start)
        if start < 0:
            raise PolicyError("start iteration must be nonnegative")
        base = cls.uniform(lo, hi)  # validates the range
        return cls(kind="unit-after", start=start, lo=base.lo, hi=base.hi)

    def _draw(self, rng):
        for _ in range(1000):
            a = float(rng.uniform(self.lo, self.hi))
            if abs(a) >= MIN_RANDOM_STEP:
                return a
        raise PolicyError("could not draw a step outside the rejected band")

    def _scheduled(self, k):
        if k >= len(self.values):
            raise PolicyError(f"step schedule exhausted at iteration {k}")
        return self.values[k]

    def alpha(self, k, probe, rng):
        a = self._kinds[self.kind].rule(self, k, probe, rng)
        if a == 0.0:
            raise PolicyError(f"step policy produced zero at iteration {k}")
        return a


@dataclass(frozen=True)
class SigmaPolicy(_TablePolicy):
    """Complement scaling rule. Always emits a positive value.

    kinds: "constant", "uniform" (random in [lo, hi], lo > 0), "newton-at"
    (the unique termination-forcing value at iteration ``at``, possibly
    rescaled by ``scale``; ``default`` elsewhere, and where that value does
    not exist). ``at = -1`` scales the identity the run starts from.
    """

    kind: str
    value: float = 1.0
    lo: float = 0.5
    hi: float = 2.0
    at: int | None = None
    scale: float = 1.0
    default: float = 1.0

    _what = "sigma"
    _default_kind = "constant"
    _kinds = {
        "constant": _Kind("constant", (), ("value",),
                          lambda pol, k, probe, rng: pol.value,
                          lambda pol: f"constant[{pol.value:g}]"),
        "uniform": _Kind("uniform", (), ("lo", "hi"),
                         lambda pol, k, probe, rng: float(rng.uniform(pol.lo, pol.hi)),
                         lambda pol: f"uniform[{pol.lo:g}:{pol.hi:g}]"),
        "newton-at": _Kind(
            "newton_at", ("at",), ("at", "scale", "default"),
            lambda pol, k, probe, rng: (
                pol.scale * probe() if k == pol.at else pol.default),
            lambda pol: f"newton-at[{pol.at}]"
            + ("" if pol.scale == 1.0 else f"*{pol.scale:g}")),
    }

    @classmethod
    def constant(cls, value=1.0):
        value = _real("value", value)
        if value <= 0.0:
            raise PolicyError("sigma must be positive")
        return cls(kind="constant", value=value)

    @classmethod
    def uniform(cls, lo=0.5, hi=2.0):
        lo, hi = _real("lo", lo), _real("hi", hi)
        if lo <= 0.0 or hi <= lo:
            raise PolicyError(f"invalid sigma range [{lo}, {hi}]")
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def newton_at(cls, at, scale=1.0, default=1.0):
        at = _integer("at", at)
        scale, default = _real("scale", scale), _real("default", default)
        if scale <= 0.0 or default <= 0.0:
            raise PolicyError("scale and default sigma must be positive")
        return cls(kind="newton-at", at=at, scale=scale, default=default)

    def sigma(self, k, probe, rng):
        s = self._kinds[self.kind].rule(self, k, probe, rng)
        if s <= 0.0:
            raise PolicyError(f"sigma policy produced {s} at iteration {k}")
        if s == math.inf:  # only a scaled Newton value overflows
            raise DegenerateBasisError(f"scaled Newton value {s} is not finite")
        return s


def _conjugate_images(h_p, h_newton_prev, q, g_slope, alpha):
    """The two-term recursion on Hessian images, shared by both modes.

    Linearity gives Hq = Hp - H pN_prev for the new conjugate direction
    q = p - pN_prev, and the image of the updated restricted Newton step
    follows the same recursion as the step itself:

        H pN_next = (1 - alpha) H pN_prev - (g'q / q'Hq + alpha) Hq

    with g = ``g_slope``. The gradients at the current point and at the
    restricted minimizer, g + H pN_prev, give the same slope in exact
    arithmetic. The solver takes the second, the exact line minimizer along
    q; with the first, rounding in pN_prev'Hq enters scaled by ||H pN_prev||,
    and half the uniform-step runs at grades to 16 diverged, to |g| 1e67.

    Returns (Hq, H pN_next, coef), the images with the shared recursion
    coefficient, or raises NotPositiveDefiniteError when q'Hq is not positive
    relative to ||q|| ||Hq||.
    """
    h_q = h_p - h_newton_prev
    q_h_q = float(q @ h_q)
    if q_h_q <= CURVATURE_RTOL * norm(q) * norm(h_q):
        raise NotPositiveDefiniteError(f"degenerate curvature q'Hq = {q_h_q:.3e}")
    coef = float(g_slope @ q) / q_h_q + alpha
    h_newton_next = (1.0 - alpha) * h_newton_prev - coef * h_q
    return h_q, h_newton_next, coef


def solve_direction(g, newton_step, h_newton_step, q, h_q, sigma):
    """The p solving B p = -g for the two-vector approximation, in closed form.

    B copies H on P = [newton_step, q] and is sigma I on the complement of
    span(P). It is never built here; its dense form is the tests' reference,
    ``oracles.span_approx``. The gradient at the restricted minimizer,
    g_hat = g + H newton_step, is orthogonal to span(P), and B sends the upcoming conjugate direction -g_hat + c q of
    :func:`_upcoming_direction` to -sigma g_hat, so, with c = g_hat'Hq / q'Hq,

        p = newton_step + (-g_hat + c q) / sigma.
    """
    return newton_step + _upcoming_direction(g + h_newton_step, q, h_q)[1] / sigma


def _iterate(prob, x0, rule, steps, mode, tol, max_iter):
    """The one iteration of every method: ``rule`` gives each direction,
    p = ``rule.direction(g)``, and every end of a run is here.

    A run converges once ||g|| <= tol * (1 + ||g0||), the threshold. A rule
    that ``descends`` ends it where g'p >= 0, before the H-product. Oracle
    mode takes Hp before the step policy, so the exact step reuses it, and
    carries the gradient as g + alpha Hp, exact on a quadratic, while its
    norm is above the threshold and finite: it cannot end the run, so an
    iteration makes one oracle call. Otherwise the gradient is evaluated,
    as it always is in matrix-free mode, which takes Hp from the difference.
    The record, with ``rule.exhausted``, is kept before the step's gradient
    is taken; ``rule.update(k, record, x_next, g_next, converged)`` fills
    the rest, raising NotPositiveDefiniteError for degenerate curvature
    above tolerance and PolicyError or DegenerateBasisError to end the run.
    ``rule.begin`` gives the meta and the step generator, ``rule.start``
    runs before the start checks, and the cap, default n +
    ``rule.cap_over_n``, ends the run as ``rule.at_cap``. Every end is at
    the current point, where a carried gradient is evaluated; the run
    converged if that one passes, so ``final_grad_norm`` is always evaluated.
    """
    if mode not in (ORACLE, MATRIX_FREE):
        raise ValueError(f"unknown mode {mode!r}")
    check_run_limits(tol, max_iter)
    x = prob._check_vector(x0, name="x0")
    cap = max_iter if max_iter is not None else prob.n + rule.cap_over_n
    meta, rng = rule.begin(tol, cap, mode, steps)

    def image(x_ref, g_ref, v):  # matrix-free: one more gradient, exact on a quadratic
        return prob.hessian_action(v) if mode == ORACLE else prob.gradient(x_ref + v) - g_ref

    g = prob.gradient(x)
    g_norm = norm(g)
    threshold = tol * (1.0 + g_norm)
    trace = IterateTrace(meta=meta)
    carried = False  # g is g + alpha Hp, not evaluated at x

    def finish(status, reason=""):
        final_norm = g_norm
        if carried:
            final_norm = norm(prob.gradient(x))
            if final_norm <= threshold:
                status, reason = CONVERGED, ""
        return trace.finish(status, x, final_norm, reason)

    try:
        rule.start(image, x, g, g_norm, trace)
    except PolicyError as exc:
        return finish(BREAKDOWN, str(exc))
    if not math.isfinite(g_norm):
        return finish(BREAKDOWN, "gradient is not finite at iterate 0")
    if g_norm <= threshold:
        return finish(CONVERGED)

    for k in range(cap):
        p = rule.direction(g)
        if rule.descends and float(g @ p) >= 0.0:
            return finish(BREAKDOWN, "approximation lost positive definiteness")
        h_p = prob.hessian_action(p) if mode == ORACLE else None
        try:
            alpha = steps.alpha(
                k, lambda: newton_scaling(g, p, h_p if mode == ORACLE else image(x, g, p)),
                rng)
        except NotPositiveDefiniteError:  # from the exact step
            return finish(BREAKDOWN, "nonpositive curvature along search direction")
        except PolicyError as exc:  # a schedule runs out, a draw gives up
            return finish(BREAKDOWN, str(exc))
        record = IterateRecord(x=x, g=g, p=p, alpha=alpha, grad_norm=g_norm,
                               h_p=h_p, exhausted=rule.exhausted)
        trace.records.append(record)
        x = x + alpha * p
        g = g + alpha * h_p if mode == ORACLE else None
        g_norm = math.nan if g is None else norm(g)  # NaN: evaluate
        carried = threshold < g_norm < math.inf
        if not carried:
            g = prob.gradient(x)
            g_norm = norm(g)
        if mode == MATRIX_FREE:
            record.h_p = (g - record.g) / alpha
        if not math.isfinite(g_norm):
            return finish(BREAKDOWN, f"gradient is not finite at iterate {k + 1}")
        converged = g_norm <= threshold
        try:
            rule.update(k, record, x, g, converged)
        except NotPositiveDefiniteError as exc:
            return finish(BREAKDOWN, f"{exc} with gradient above tolerance")
        except (PolicyError, DegenerateBasisError) as exc:
            return finish(BREAKDOWN, str(exc))
        if converged:
            return finish(CONVERGED)

    if rule.at_cap == MAX_ITER:
        return finish(MAX_ITER)
    return finish(BREAKDOWN, f"no convergence within {cap} iterations")


class _SubspaceRule:
    """The ``"qn-subspace"`` rule of :func:`_iterate`: the direction of
    :func:`solve_direction` from pN, q, their Hessian images and sigma, or
    pN itself once the span is exhausted. An update runs the recursion of
    :func:`_conjugate_images` and, short of convergence, draws sigma."""

    descends = False
    cap_over_n = 5
    at_cap = MAX_ITER

    def __init__(self, sigmas, seed):
        self.sigmas, self.seed = sigmas, seed

    def begin(self, tol, max_iter, mode, steps):
        rng_step, self.rng_sigma = (np.random.default_rng(s)
                                    for s in np.random.SeedSequence(self.seed).spawn(2))
        seed = list(self.seed) if isinstance(self.seed, (tuple, list)) else self.seed
        return {"method": "qn-subspace", "mode": mode, "tol": tol, "max_iter": max_iter,
                "seed": seed, "step_policy": steps.spec(),
                "sigma_policy": self.sigmas.spec(), "initial_sigma": 1.0}, rng_step

    def start(self, image, x, g, g_norm, trace):
        """Zero state, and sigma 1 or a newton-at(-1) policy's value at x0."""
        self.image, self.warnings = image, trace.warnings
        self.newton_step, self.h_newton, self.q, self.h_q = (
            np.zeros(x.size) for _ in range(4))
        self.sigma, self.exhausted = 1.0, False
        if self.sigmas.at == -1 and 0.0 < g_norm < math.inf:
            self.sigma = trace.meta["initial_sigma"] = self._draw(-1, x, g)

    def _draw(self, k, x, g):
        """The policy's sigma at iteration k or, where its Newton value at
        (x, g) does not exist or scales past the floats, its default."""
        try:
            return self.sigmas.sigma(k, lambda: _newton_value(
                self.image, x, g, self.h_newton, self.q, self.h_q, self.exhausted),
                self.rng_sigma)
        except DegenerateBasisError as exc:
            self.warnings.append(f"iteration {k}: sigma policy fell back to "
                                 f"{self.sigmas.default:g} ({exc})")
            return self.sigmas.default

    def direction(self, g):
        if self.exhausted:  # the span is complete: the closed form would add
            # its rounding over sigma at every pass, pN's error only contracts
            p = self.newton_step.copy()
        else:
            p = solve_direction(g, self.newton_step, self.h_newton, self.q, self.h_q,
                                self.sigma)
        self.q_next = p - self.newton_step
        self.exhausted = bool(norm(self.q_next)
                              <= EXHAUSTED_RTOL * (norm(p) + norm(self.newton_step)))
        return p

    def update(self, k, record, x_next, g_next, converged):
        alpha, p, h_p = record.alpha, record.p, record.h_p
        if self.exhausted:
            # no new conjugate direction exists. Updating by the move taken
            # (rather than scaling by 1 - alpha, the same in exact arithmetic)
            # keeps the direction's one-time rounding out of the correction.
            q, h_q = np.zeros(p.size), np.zeros(p.size)
            newton_next = self.newton_step - alpha * p
            h_newton_next = self.h_newton - alpha * h_p
        else:
            q = self.q_next
            try:
                h_q, h_newton_next, coef = _conjugate_images(
                    h_p, self.h_newton, q, record.g + self.h_newton, alpha)
            except NotPositiveDefiniteError:
                if not converged:
                    raise
                record.q, record.h_q = q, h_p - self.h_newton
                return
            newton_next = (1.0 - alpha) * self.newton_step - coef * q
        record.q, record.h_q = self.q, self.h_q = q, h_q
        record.newton_step = self.newton_step = newton_next
        record.h_newton_step = self.h_newton = h_newton_next
        if converged:
            return
        sigma = self._draw(k, x_next, g_next)
        if self.exhausted and norm(newton_next) == 0.0:
            raise DegenerateBasisError("no direction information left while "
                                       "the gradient is above tolerance")
        self.sigma = record.sigma = sigma


def subspace_qn_solve(prob, x0, steps=None, sigmas=None, mode=ORACLE,
                      tol=1e-9, max_iter=None, seed=0):
    """Run the arbitrary-step method on a quadratic problem.

    Parameters
    ----------
    prob : QuadraticProblem
    x0 : ndarray
        Start point.
    steps : StepPolicy
        Step length rule (default unit steps).
    sigmas : SigmaPolicy
        Complement scaling rule (default constant 1).
    mode : str
        Where the step's Hessian image Hp comes from: "oracle" takes one
        H-product and carries the gradient as g + alpha Hp, "matrix-free"
        the gradient difference. Either makes one oracle call per iteration
        beyond what the step and sigma policies probe.
    tol : float
        Finite and positive; terminate once ||g|| <= tol * (1 + ||g0||).
    max_iter : int, optional
        Nonnegative step budget, default n + 5.
    seed : int or tuple of int
        Seeds the policies' random draws; fully determines the run.

    Returns
    -------
    IterateTrace
        One record per step plus the terminal status: converged(iterations),
        max-iter, or breakdown(reason), with ``final_grad_norm`` evaluated
        at ``final_x``; ``meta["initial_sigma"]`` is 1, or a newton-at(-1)
        policy's value at x0 (its ``default`` where that does not exist).
        Only invalid arguments raise, before the first gradient.
    """
    steps = steps if steps is not None else StepPolicy.unit()
    sigmas = sigmas if sigmas is not None else SigmaPolicy.constant(1.0)
    return _iterate(prob, x0, _SubspaceRule(sigmas, seed), steps, mode, tol, max_iter)

"""Joint belief-propagation syndrome decoder for CSS code pairs.

Two binary Tanner graphs share the qubit set: rows of H_Z check the
x-component against target bits s, rows of H_X check the z-component
against target bits t.  The graphs are coupled through the correlated
depolarizing prior: because Y flips both components, the aggregated
check evidence about z reshapes the channel term for x and vice versa.

Message rules (flooding schedule, LLR convention L = ln(P(0)/P(1))):

* check -> variable:  tanh(m_c2v / 2) = (1 - 2 s_c) * prod over the
  other edges of tanh(m_v2c / 2), with inputs clipped to +/-llr_clip
  before the product and outputs clipped after;
* variable -> check:  m_v2c = lam + Lambda - m_c2v, where Lambda is
  the sum of all check messages into the variable on its own graph and
  lam is the coupled channel term
      lam_x = ln[(p_I + p_Z e^(-Lambda_z)) / (p_X + p_Y e^(-Lambda_z))]
  (symmetrically for z), evaluated with log-sum-exp;
* hard decision:  bit = 1 iff lam + Lambda < 0, ties to 0.

The decoder checks the recomputed syndrome after every hard decision,
starting from the prior-only decision before any message update, and
stops on match or after max_iterations rounds.

Both graphs are the :class:`~qcldpc.gf2.TannerGraph` layouts cached on
the check matrices (the ones syndrome extraction reads), which also
enforce the regularity the fixed-shape message arrays rely on.

:meth:`JointBpDecoder.decode_batch` decodes B frames at once for the Monte
Carlo driver.  Its messages live in one frame-minor (d, 2, m, B) array
(edge slot, graph, check, frame): both graphs of every frame update in one
numpy call per step, each edge slot is one contiguous block, and gathers
move whole rows.  This needs graphs of equal shape, as every built code
has.  Most of its iterations run after all but one to four frames have
stopped, mostly on frames that reach the iteration cap, and at such widths
numpy's per-call cost outweighs the arithmetic, so an iteration makes few
calls, on contiguous blocks:

* one gather of the per-edge totals feeds both the check update and the
  stopping test: an edge's total is negative exactly where its variable's
  hard decision is 1, so the parity of each check is the xor of those signs
  and its syndrome bit;
* the prefix and suffix products of a check run as one chain of d - 1
  multiplies over a slot-major (d + 1, 2, 2m, B) stack, whose row k + 1
  holds slot k's tanh and, reversed, slot d-1-k's, so each multiply covers
  both directions and both graphs in one contiguous block;
* depolarizing_prior gives X, Y and Z one rate, so ln p_X = ln p_Y = ln p_Z
  and both channel terms of a graph share one difference, ln p_X minus the
  other graph's sums;
* the atanh guard is skipped when it cannot bind: every |t| is at most
  tanh(llr_clip / 2), and so is each product of d - 1 >= 1 of them, which at
  the default clip of 25 is 1 - 2.8e-11 against the guard's 1 - 1e-15;
* halving is a multiply by 0.5 (the same double as / 2.0), and the syndrome
  signs are laid out per edge row whenever the batch is laid out.

The edge totals are gathered into the spare one of the two message
buffers, where the check update turns them into the next messages, and
the variable-side gather and the channel terms share the product stack's
memory, which they leave before the check update fills it: about 58 kB of
buffers a frame at n = 200.  When frames stop, the others' columns are
copied back into C-ordered buffers, since a[:, keep] is F-ordered and
would make every later call strided.

Every sum and product keeps decode's operand order, and every tanh,
arctanh and logaddexp runs on operands whose inner loop is contiguous as
decode's do (numpy picks a SIMD or a scalar libm kernel by memory layout,
and the two can differ in the last bit), so each frame is bit-identical to
decode, which stays the single-frame loop: the tests' reference, and the
per-frame call the benchmark's traced replay times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .channel import Syndrome, depolarizing_prior
from .codes import QuantumQcCode
from .gf2 import SparseBinaryMatrix, TannerGraph

__all__ = ["DecoderConfig", "DecodeOutcome", "JointBpDecoder"]

# Keep atanh arguments away from +/-1; only binds for llr_clip > ~35.
_TANH_GUARD = 1.0 - 1e-15


def _syndrome_bits(name: str, v, shape: tuple[int, ...]) -> np.ndarray:
    """`v` as uint8 after checking its shape and that it holds only 0 and 1."""
    v = np.asarray(v)
    if v.shape != shape:
        raise ValueError(f"{name} has shape {v.shape}, expected {shape}")
    if not ((v == 0) | (v == 1)).all():
        raise ValueError(f"{name} must hold only 0 and 1")
    return v.astype(np.uint8)


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 100
    llr_clip: float = 25.0
    damping: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.llr_clip > 0:
            raise ValueError("llr_clip must be positive")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must be in [0, 1)")


@dataclass(frozen=True)
class DecodeOutcome:
    """Estimated error pair plus convergence data.

    converged is True only when the estimate reproduces the input
    syndrome exactly; iterations counts completed message-passing
    rounds (0 when the prior-only decision already matches).
    """

    x_hat: np.ndarray
    z_hat: np.ndarray
    converged: bool
    iterations: int


class JointBpDecoder:
    """Reusable decoder instance for one (H_X, H_Z) pair.

    Workspace arrays are allocated once and reset per decode; a single
    instance is single-threaded, distinct instances share nothing
    mutable.
    """

    def __init__(self, h_x: SparseBinaryMatrix, h_z: SparseBinaryMatrix,
                 cfg: DecoderConfig | None = None):
        if h_x.cols != h_z.cols:
            raise ValueError("H_X and H_Z must have the same number of columns")
        self.cfg = cfg or DecoderConfig()
        self.n = h_x.cols
        # Graph "x" constrains the x-component (rows of H_Z), "z" the
        # z-component (rows of H_X).
        self.gx = h_z.tanner_graph()
        self.gz = h_x.tanner_graph()
        self._m_c2v_x = np.zeros((self.gx.m, self.gx.deg_check))
        self._m_c2v_z = np.zeros((self.gz.m, self.gz.deg_check))
        self._post_x = np.zeros(self.n)
        self._post_z = np.zeros(self.n)
        self._log_prior = None
        # decode_batch's frame-minor rows, for any B: edge (c, k) of graph g is row
        # k*2m + g*m + c of the (d*2m, B) messages, variable v row g*n + v of totals.
        if self.gx.check_vars.shape == self.gz.check_vars.shape:
            m, d = self.gx.check_vars.shape
            graphs = list(enumerate((self.gx, self.gz)))
            self._var_rows = np.stack(  # (deg_var, 2, n): each variable's edges
                [(g.var_edges % d * 2 * m + i * m + g.var_edges // d).T for i, g in graphs], 1)
            # Each edge's variable: row k*2m + g*m + c of the per-edge totals reads row g*n + v.
            self._edge_vars = np.stack(
                [g.check_vars.T + i * self.n for i, g in graphs], 1).ravel()
            self._ones = np.ones(2 * m, dtype=bool)  # ones @ mismatches: any per frame
        self._flat: dict[str, np.ndarray] = {}

    @classmethod
    def for_code(cls, code: QuantumQcCode,
                 cfg: DecoderConfig | None = None) -> "JointBpDecoder":
        return cls(code.h_x, code.h_z, cfg)

    def reset(self, p_d: float) -> None:
        """Clear messages and set the channel prior; leaves the decoder
        in its iteration-0 state (posterior = pure prior)."""
        self._reset_messages(p_d)
        self._update_posteriors()

    def _reset_messages(self, p_d: float) -> None:
        if not 0.0 <= p_d < 1.0:
            raise ValueError(f"decoder requires 0 <= p_d < 1, got {p_d}")
        prior = depolarizing_prior(p_d)
        with np.errstate(divide="ignore"):  # log(0) -> -inf is wanted
            self._log_prior = tuple(
                np.log(p) for p in (prior.p_ii, prior.p_x, prior.p_z, prior.p_y)
            )
        self._m_c2v_x.fill(0.0)
        self._m_c2v_z.fill(0.0)

    def _update_posteriors(self) -> tuple[np.ndarray, np.ndarray]:
        """Set the clipped hard-decision posteriors from the current
        check messages; returns the unclipped totals lam + Lambda."""
        lam_sum_x = self._m_c2v_x.ravel()[self.gx.var_edges].sum(axis=1)
        lam_sum_z = self._m_c2v_z.ravel()[self.gz.var_edges].sum(axis=1)
        ln_i, ln_x, ln_z, ln_y = self._log_prior
        chan_x = np.logaddexp(ln_i, ln_z - lam_sum_z) - np.logaddexp(
            ln_x, ln_y - lam_sum_z
        )
        chan_z = np.logaddexp(ln_i, ln_x - lam_sum_x) - np.logaddexp(
            ln_z, ln_y - lam_sum_x
        )
        total_x = chan_x + lam_sum_x
        total_z = chan_z + lam_sum_z
        clip = self.cfg.llr_clip
        np.clip(total_x, -clip, clip, out=self._post_x)
        np.clip(total_z, -clip, clip, out=self._post_z)
        return total_x, total_z

    def posterior_llrs(self) -> tuple[np.ndarray, np.ndarray]:
        """Hard-decision LLRs of the current iteration (clipped, finite)."""
        if self._log_prior is None:
            raise RuntimeError("decoder has no state; call reset() or decode() first")
        return self._post_x.copy(), self._post_z.copy()

    def _check_update(self, graph: TannerGraph, m_c2v, v2c, syn_sign) -> np.ndarray:
        clip = self.cfg.llr_clip
        t = np.tanh(np.clip(v2c, -clip, clip) / 2.0)
        d = graph.deg_check
        pre = np.ones_like(t)
        suf = np.ones_like(t)
        for k in range(1, d):
            pre[:, k] = pre[:, k - 1] * t[:, k - 1]
            suf[:, d - 1 - k] = suf[:, d - k] * t[:, d - k]
        excl = np.clip(pre * suf, -_TANH_GUARD, _TANH_GUARD)
        new = syn_sign[:, None] * 2.0 * np.arctanh(excl)
        np.clip(new, -clip, clip, out=new)
        if self.cfg.damping:
            new = (1.0 - self.cfg.damping) * new + self.cfg.damping * m_c2v
        return new

    def decode(self, syn: Syndrome, p_d: float) -> DecodeOutcome:
        """Estimate (x_hat, z_hat) from the syndrome pair.

        Args:
            syn: Observed (s, t); s must match H_Z's row count and t
                H_X's.
            p_d: Depolarizing rate the prior is built from, in (0, 1).
                p_d = 0 is degenerate: with a nonzero syndrome there is
                no prior mass on any explanation and the decoder
                returns unconverged immediately.

        Returns:
            DecodeOutcome; converged implies the recomputed syndrome
            equals the input.
        """
        s = _syndrome_bits("s", syn.s, (self.gx.m,))
        t = _syndrome_bits("t", syn.t, (self.gz.m,))

        self._reset_messages(p_d)
        sign_s = 1.0 - 2.0 * s.astype(np.float64)
        sign_t = 1.0 - 2.0 * t.astype(np.float64)

        for it in range(self.cfg.max_iterations + 1):
            total_x, total_z = self._update_posteriors()
            x_hat = (self._post_x < 0).astype(np.uint8)
            z_hat = (self._post_z < 0).astype(np.uint8)
            if np.array_equal(self.gx.check_sums(x_hat), s) and np.array_equal(
                self.gz.check_sums(z_hat), t
            ):
                return DecodeOutcome(
                    x_hat=x_hat, z_hat=z_hat, converged=True, iterations=it
                )
            if it == self.cfg.max_iterations or (p_d == 0.0 and it == 0):
                return DecodeOutcome(
                    x_hat=x_hat, z_hat=z_hat, converged=False, iterations=it
                )
            v2c_x = total_x[self.gx.check_vars] - self._m_c2v_x
            v2c_z = total_z[self.gz.check_vars] - self._m_c2v_z
            self._m_c2v_x = self._check_update(self.gx, self._m_c2v_x, v2c_x, sign_s)
            self._m_c2v_z = self._check_update(self.gz, self._m_c2v_z, v2c_z, sign_t)
        raise AssertionError("unreachable")

    def _views(self, syn: np.ndarray) -> SimpleNamespace:
        """decode_batch's arrays for the b frames of syn's (2m, b) syndrome bits,
        frame axis last, each a contiguous prefix of a flat buffer grown to the
        largest batch seen; they hold the bits and, per edge row, 2 (1 - 2 s)."""
        n, (m, d), j, b = self.n, self.gx.check_vars.shape, self.gx.deg_var, syn.shape[1]

        def shaped(key, *shape, dtype=float):
            size = math.prod(shape) * b
            if len(self._flat.get(key, ())) < size:
                self._flat[key] = np.empty(size, dtype)
            return self._flat[key][:size].reshape(*shape, b)

        v = SimpleNamespace(
            msg=shaped("msg", d * 2 * m), new=shaped("new", d * 2 * m), lam=shaped("lam", 2, n),
            total=shaped("total", 2, n), sign2=shaped("sign2", d * 2 * m),
            par=shaped("par", d + 1, 2 * m, dtype=bool), slots=(d, 2 * m, b),
        )
        # Product stack, slot-major: stack[k + 1] holds slot k's tanh in [0] and slot d-1-k's
        # in [1], one contiguous (2, 2m, b) block.  With stack[0] = 1, the chain of d - 1
        # in-place multiplies stack[k] *= stack[k - 1] then leaves in stack[k][0] the product
        # over the slots before k (decode's pre) and in stack[k][1] over the slots after
        # d-1-k (decode's suf), each in decode's order.
        row = 4 * m * b
        flat = shaped("stack", 4 * m + max(4 * m * d, 2 * n * (j + 2))).ravel()
        v.stack = flat[:(d + 1) * row].reshape(d + 1, 2, 2 * m, b)
        v.stack[0] = 1.0
        v.tanh, v.flip = v.stack[1:, 0], (v.stack[1:d, 1], v.stack[d:1:-1, 0])
        v.chain = [(v.stack[k - 1], v.stack[k], v.stack[k]) for k in range(1, d)]
        v.pre_suf = (v.stack[:d, 0], v.stack[d - 1::-1, 1])
        # The variable-side gather and the channel terms are spent before the check
        # update writes stack[1:], so they live there.
        v.gath = flat[row:row + j * 2 * n * b].reshape(j, 2, n, b)
        v.ch = flat[row + j * 2 * n * b:row + (j + 2) * 2 * n * b].reshape(2, 2, n, b)
        v.other, v.terms = v.lam[::-1], (v.ch[0], v.ch[1])  # graph x's terms read z's sums
        v.total_rows, v.syn = v.total.reshape(2 * n, b), v.par[d]
        v.par_rows = v.par[:d].reshape(-1, b)
        v.syn[...] = syn
        v.sign2.reshape(v.slots)[...] = (1.0 - 2.0 * syn) * 2.0
        return v

    def decode_batch(self, S, T, p_d: float, *,
                     stopped: Callable[[], bool] | None = None) -> list[DecodeOutcome]:
        """:meth:`decode` of B frames at once, each bit-identical to decode's.

        S is (B, rows of H_Z), T is (B, rows of H_X), one frame per row;
        returns one DecodeOutcome per row.  H_X and H_Z must have the
        same shape and row weight.  `stopped`, if given, is called once
        per message-passing round; when it returns True the batch is
        abandoned and [] is returned.
        """
        if self.gx.check_vars.shape != self.gz.check_vars.shape:
            raise ValueError("decode_batch needs H_X and H_Z of equal shape and row weight")
        S = _syndrome_bits("S", S, np.shape(S)[:1] + (self.gx.m,))
        T = _syndrome_bits("T", T, S.shape[:1] + (self.gz.m,))
        self._reset_messages(p_d)  # validates p_d and sets the log prior as decode does
        ln_i, ln_x = self._log_prior[:2]
        self._log_prior = None  # no single-frame state is left for posterior_llrs
        if not len(S):
            return []
        # ln_x = ln_y = ln_z (depolarizing_prior), so a graph's two channel terms are
        # logaddexp(ln_i, diff) and logaddexp(ln_x, diff), diff = ln_x - other sums.
        ln_a = np.array([ln_i, ln_x]).reshape(2, 1, 1, 1)
        clip, damping, cap = self.cfg.llr_clip, self.cfg.damping, self.cfg.max_iterations
        d = self.gx.deg_check
        # |excl| <= tanh(clip / 2) when d >= 2, so the guard binds only if that comes
        # within numpy tanh's few-ulp error (1e-13 leaves ~900 ulp) of _TANH_GUARD.
        guard = d < 2 or math.tanh(clip / 2) > _TANH_GUARD - 1e-13
        rows = np.arange(len(S))  # each column's frame
        outcomes: list[DecodeOutcome | None] = [None] * len(S)
        v = self._views(np.concatenate([S.T, T.T]))
        v.msg[...] = 0.0
        for it in range(cap + 1):
            # Totals lam + Lambda, as in _update_posteriors (diff is formed in total).
            v.msg.take(self._var_rows, axis=0, out=v.gath, mode="wrap")
            np.add.reduce(v.gath, axis=0, out=v.lam)
            np.logaddexp(ln_a, np.subtract(ln_x, v.other, out=v.total), out=v.ch)
            np.add(np.subtract(*v.terms, out=v.total), v.lam, out=v.total)
            # Each edge's total, the check update's input; its sign is the hard decision
            # of the edge's variable, so the xor over a check's edges and syndrome bit
            # is the check's mismatch.
            t = v.new
            v.total_rows.take(self._edge_vars, axis=0, out=t, mode="wrap")
            np.less(t, 0.0, out=v.par_rows)
            fail = self._ones @ np.bitwise_xor.reduce(v.par, axis=0)
            last = it == cap or (p_d == 0.0 and it == 0)
            if last or np.count_nonzero(fail) < len(fail):
                for r in range(len(fail)) if last else np.flatnonzero(~fail):
                    x_hat, z_hat = (v.total[:, :, r] < 0.0).astype(np.uint8)
                    outcomes[rows[r]] = DecodeOutcome(x_hat, z_hat, not fail[r], it)
                keep = np.flatnonzero(fail)
                if last or not len(keep):
                    return outcomes
                # Copy the active columns out and back into C-ordered views for them
                # (a[:, keep] is F-ordered, and mixed orders make every call strided).
                rows, syn, msg, t = rows[keep], v.syn[:, keep], v.msg[:, keep], t[:, keep]
                v = self._views(syn)
                v.msg[...], v.new[...] = msg, t
                t = v.new
            if stopped is not None and stopped():
                return []
            # Check update, as in _check_update, from the edge totals in t = v.new.
            np.subtract(t, v.msg, out=t)
            t.clip(-clip, clip, out=t)
            np.multiply(t, 0.5, out=t)  # the same double as / 2.0
            t_slots = t.reshape(v.slots)
            np.tanh(t_slots, out=v.tanh)
            np.copyto(*v.flip)
            for prev, cur, out in v.chain:
                np.multiply(prev, cur, out=out)
            np.multiply(*v.pre_suf, out=t_slots)  # excl = pre * suf
            if guard:
                t.clip(-_TANH_GUARD, _TANH_GUARD, out=t)
            np.arctanh(t, out=t)
            np.multiply(v.sign2, t, out=t)
            t.clip(-clip, clip, out=t)
            if damping:
                np.multiply(t, 1.0 - damping, out=t)
                np.add(t, np.multiply(v.msg, damping, out=v.msg), out=t)
            v.msg, v.new = t, v.msg
        raise AssertionError("unreachable")

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

:meth:`JointBpDecoder.decode_batch` decodes B frames at once; the Monte
Carlo driver calls it.  Its messages live in one edge-major (B, 2, d, m)
array (frame, graph, edge slot, check), so both graphs of every frame
update in one numpy call per step; this needs graphs of equal shape, as
every built code has.  A frame leaves on the iteration where decode
would return and the rest are compacted.  Every sum and product keeps
decode's operand order, so each frame is bit-identical to decode, which
stays the single-frame loop: the tests' reference, and the per-frame
call the benchmark's traced replay times.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # decode_batch gathers: each variable's edges out of a frame's messages
        # (edge (c, k) of graph g at g*d*m + k*m + c), each edge's variable
        # out of its (2, n) totals.
        if self.gx.check_vars.shape == self.gz.check_vars.shape:
            m, d = self.gx.check_vars.shape
            graphs = list(enumerate((self.gx, self.gz)))
            self._var_idx = np.stack(
                [(g.var_edges % d * m + g.var_edges // d).T + i * d * m for i, g in graphs]
            )
            self._check_idx = np.stack([g.check_vars.T + i * self.n for i, g in graphs])
        self._work: dict[str, np.ndarray] = {}

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

    def _buffers(self, batch: int) -> dict[str, np.ndarray]:
        """Work arrays for `batch` frames, grown to the largest batch seen."""
        if len(self._work.get("msg", ())) < batch:
            m, d = self.gx.check_vars.shape
            self._work = {k: np.empty((batch, 2, d, m)) for k in ("msg", "new", "t", "pre", "suf")}
            self._work |= {k: np.empty((batch, 2, self.n)) for k in ("lam", "aux", "total")}
            self._work["gath"] = np.empty((batch, 2, self.gx.deg_var, self.n))
        return {k: v[:batch] for k, v in self._work.items()}

    def decode_batch(self, S, T, p_d: float) -> list[DecodeOutcome]:
        """:meth:`decode` of B frames at once, each bit-identical to decode's.

        S is (B, rows of H_Z), T is (B, rows of H_X), one frame per row;
        returns one DecodeOutcome per row.  H_X and H_Z must have the
        same shape and row weight.
        """
        if self.gx.check_vars.shape != self.gz.check_vars.shape:
            raise ValueError("decode_batch needs H_X and H_Z of equal shape and row weight")
        S, T = np.asarray(S), np.asarray(T)
        S = _syndrome_bits("S", S, S.shape[:1] + (self.gx.m,))
        T = _syndrome_bits("T", T, S.shape[:1] + (self.gz.m,))
        self._reset_messages(p_d)  # validates p_d and sets the log prior as decode does
        ln_i, ln_x, ln_z, ln_y = self._log_prior
        self._log_prior = None  # no single-frame state is left for posterior_llrs
        if not len(S):
            return []
        ln_other = np.array([[ln_z], [ln_x]])  # graph x's channel term reads z's sums
        ln_own = np.array([[ln_x], [ln_z]])
        clip, damping, cap = self.cfg.llr_clip, self.cfg.damping, self.cfg.max_iterations
        syn = np.stack([S, T], axis=1)  # (B, 2, m)
        sign2 = (1.0 - 2.0 * syn[:, :, None, :]) * 2.0
        rows = np.arange(len(syn))  # frame index of each active row
        outcomes: list[DecodeOutcome | None] = [None] * len(syn)
        w = self._buffers(len(syn))
        msg, new = w.pop("msg"), w.pop("new")
        msg.fill(0.0)
        for it in range(cap + 1):
            # Totals lam + Lambda and the hard decision, as in _update_posteriors.
            gath, total, aux = w["gath"], w["total"], w["aux"]
            np.take(msg.reshape(len(msg), -1), self._var_idx, axis=1, out=gath, mode="wrap")
            lam = np.sum(gath, axis=2, out=w["lam"])
            other = lam[:, ::-1]
            np.logaddexp(ln_i, np.subtract(ln_other, other, out=total), out=total)
            np.logaddexp(ln_own, np.subtract(ln_y, other, out=aux), out=aux)
            np.subtract(total, aux, out=total)
            np.add(total, lam, out=total)
            hard = (total < 0).view(np.uint8)
            parity = np.bitwise_xor.reduce(hard.reshape(len(hard), -1)[:, self._check_idx], axis=2)
            ok = (parity == syn).all(axis=(1, 2))
            done = ok if it < cap and (p_d != 0.0 or it > 0) else np.ones_like(ok)
            if done.any():
                for r in np.flatnonzero(done):
                    outcomes[rows[r]] = DecodeOutcome(
                        x_hat=hard[r, 0].copy(), z_hat=hard[r, 1].copy(),
                        converged=bool(ok[r]), iterations=it,
                    )
                keep = np.flatnonzero(~done)
                if not len(keep):
                    return outcomes
                rows, syn, sign2 = rows[keep], syn[keep], sign2[keep]
                msg[:len(keep)], total[:len(keep)] = msg[keep], total[keep]
                msg, new = msg[:len(keep)], new[:len(keep)]
                w = {k: v[:len(keep)] for k, v in w.items()}
                total = w["total"]
            # Check update, as in _check_update.
            t, pre, suf = w["t"], w["pre"], w["suf"]
            np.take(total.reshape(len(total), -1), self._check_idx, axis=1, out=t, mode="wrap")
            np.subtract(t, msg, out=t)
            np.clip(t, -clip, clip, out=t)
            np.divide(t, 2.0, out=t)
            np.tanh(t, out=t)
            d = t.shape[2]
            pre[:, :, 0] = suf[:, :, d - 1] = 1.0
            for k in range(1, d):
                np.multiply(pre[:, :, k - 1], t[:, :, k - 1], out=pre[:, :, k])
                np.multiply(suf[:, :, d - k], t[:, :, d - k], out=suf[:, :, d - 1 - k])
            np.multiply(pre, suf, out=pre)
            np.clip(pre, -_TANH_GUARD, _TANH_GUARD, out=pre)
            np.arctanh(pre, out=pre)
            np.multiply(sign2, pre, out=new)
            np.clip(new, -clip, clip, out=new)
            if damping:
                np.multiply(new, 1.0 - damping, out=new)
                np.add(new, np.multiply(msg, damping, out=suf), out=new)
            msg, new = new, msg
        raise AssertionError("unreachable")

"""Ground-truth generators for synthetic quantile data.

Everything here works by literally sampling and sorting, so these functions
double as brute-force oracles for the analytic order-statistics densities:
no shared code with the likelihood kernels beyond the distribution objects.

Replicates use independent RNG streams seeded by (seed, replicate_index),
so an ensemble is reproducible row-by-row and insensitive to evaluation
order.  The generators sort uniform draws and push them through the
family's array inverse CDF in one call; where only the k-th order
statistic is needed, just that column goes through.  That is
distribution-identical to sorting the mapped sample because the inverse
CDF is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Dist, ppf
from .orderstats import QuantileObservation, _check_levels, _count, _seed

__all__ = [
    "SimConfig",
    "simulate_quantile_data",
    "empirical_cdf_ensemble",
    "os_marginal_oracle",
]

# smallest positive double: rng.random() can return exactly 0, which the
# quantile functions reject
_TINY_U = 5e-324


@dataclass(frozen=True)
class SimConfig:
    """A generating distribution plus the observation layout to simulate."""

    d: Dist
    n_total: int
    q: tuple[float, ...]
    reps: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_total", _count("n_total", self.n_total))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        object.__setattr__(self, "reps", _count("reps", self.reps))
        object.__setattr__(self, "seed", _seed("seed", self.seed))
        if len(self.q) == 0:
            raise ValueError("q must be non-empty")
        _check_levels(self.q)


def _interp_at_rank(sorted_x: np.ndarray, rank: float) -> float:
    """Value at real-valued 1-indexed rank, linear between order statistics."""
    n = sorted_x.size
    if rank < 1.0 or rank > n:
        raise ValueError(
            f"rank q*N = {rank} falls outside the realized order statistics "
            f"[1, {n}]; choose q in [1/N, 1]"
        )
    i = math.floor(rank)
    frac = rank - i
    if frac == 0.0 or i == n:
        return float(sorted_x[i - 1])
    return float(sorted_x[i - 1] + frac * (sorted_x[i] - sorted_x[i - 1]))


def simulate_quantile_data(cfg: SimConfig) -> QuantileObservation:
    """Draw N samples, sort them, and read off the configured quantiles.

    The value for level q_m sits at real rank q_m * N, interpolated
    linearly between the two adjacent order statistics; integer ranks pick
    the order statistic itself.
    """
    rng = np.random.default_rng(cfg.seed)
    sorted_x = np.sort(cfg.d.sample(rng, cfg.n_total))
    x = tuple(_interp_at_rank(sorted_x, qm * cfg.n_total) for qm in cfg.q)
    return QuantileObservation(q=cfg.q, x=x, n_total=cfg.n_total)


_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 1024  # rows per pass; bounds the Python ints and uniforms alive


def _pcg64_states(seed: int, reps: int):
    """Yield (state, inc) of PCG64(SeedSequence([seed, i])) for i < reps.

    SeedSequence hashes every entropy vector with the same constants, so
    the hash runs over numpy uint32 columns, a chunk of rows at a time;
    building a SeedSequence and a generator per row took most of the
    oracle's time.
    """
    seed = _seed("seed", seed)
    words = [seed >> b & _M32 for b in range(0, seed.bit_length() or 1, 32)]
    for start in range(0, reps, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, reps), dtype=np.uint32)
        ent = [np.full(i.size, w, np.uint32) for w in words] + [i]
        h = [0x43B0D7E5, 0x931E8875]

        def hashmix(v):
            v = v ^ np.uint32(h[0])
            h[0] = h[0] * h[1] & _M32
            v = v * np.uint32(h[0])
            return v ^ v >> np.uint32(16)

        def mix(x, y):
            r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
            return r ^ r >> np.uint32(16)

        pool = [hashmix(ent[j] if j < len(ent) else 0 * i) for j in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in ent[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(src))
        h[:] = [0x8B51F9DD, 0x58F38DED]  # generate_state(4, np.uint64)
        w = [hashmix(pool[j % 4]).astype(np.uint64) for j in range(8)]
        s_hi, s_lo, i_hi, i_lo = (
            (w[j] | w[j + 1] << np.uint64(32)).tolist() for j in (0, 2, 4, 6))
        for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
            inc = ((c << 64 | d) << 1 | 1) & _M128
            yield ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _M128, inc


def _uniform_blocks(seed: int, reps: int, n: int):
    """Yield rows 0, ..., reps - 1 in blocks of at most _CHUNK: row i is
    np.random.default_rng([seed, i]).random(n), clipped at _TINY_U; one
    generator is re-seeded per row instead of built."""
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    states = _pcg64_states(seed, reps)
    for start in range(0, reps, _CHUNK):
        block = np.empty((min(_CHUNK, reps - start), n))
        for row, (state, inc) in zip(block, states):
            bit_gen.state = {"bit_generator": "PCG64", "has_uint32": 0,
                             "uinteger": 0,
                             "state": {"state": state, "inc": inc}}
            gen.random(out=row)
        yield np.clip(block, _TINY_U, None, out=block)


def _uniform_rows(seed: int, reps: int, n: int) -> np.ndarray:
    """The rows of ``_uniform_blocks`` as one reps x n array."""
    return np.concatenate(list(_uniform_blocks(seed, reps, n)))


def empirical_cdf_ensemble(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """reps independent sorted samples plus the rank grid m/N.

    Returns (values, ranks): values has shape (reps, N) with each row an
    ascending sample from cfg.d, and ranks[m-1] = m/N, so each row paired
    with ranks traces one empirical CDF.  Rank N (grid value 1.0) is kept:
    an empirical CDF does reach 1, even though a fit would reject q = 1.
    """
    u = _uniform_rows(cfg.seed, cfg.reps, cfg.n_total)
    u.sort(axis=1)
    values = ppf(cfg.d.spec, cfg.d.theta, u)
    ranks = np.arange(1, cfg.n_total + 1, dtype=float) / cfg.n_total
    return values, ranks


def os_marginal_oracle(d: Dist, n_total: int, k: int, reps: int,
                       seed: int = 0) -> np.ndarray:
    """reps sort-and-pick draws of the k-th order statistic of n_total.

    Brute-force reference for the analytic marginal: no density code is
    involved, only sampling, sorting and the monotone quantile map.
    """
    n_total = _count("n_total", n_total)
    k_f = float(k)
    if not k_f.is_integer() or not 1 <= int(k_f) <= n_total:
        raise ValueError(f"k must be an integer in [1, {n_total}], got {k!r}")
    k = int(k_f)
    # a block at a time, so only _CHUNK rows of n_total uniforms, and the
    # inverse CDF's temporaries for _CHUNK values, are alive
    out = np.empty(_count("reps", reps))
    for start, block in zip(range(0, out.size, _CHUNK),
                            _uniform_blocks(seed, out.size, n_total)):
        block.sort(axis=1)
        out[start:start + len(block)] = ppf(d.spec, d.theta, block[:, k - 1])
    return out

"""Pluggable BLAS-backed kernels for the approximate LUT matmul.

The hot loop of the whole reproduction is the integer product

    result[m, n] = sum_k sign[k, n] * LUT[A[m, k], mag[k, n]]

where ``A`` holds unsigned activation codes and ``(sign, mag)`` is the
sign-magnitude weight decomposition.  The reference implementation
(:func:`repro.axnn.approx_ops.approx_matmul`) evaluates it by materialising
an ``(m, K, N)`` gather tensor — correct, but every downstream sweep
(accuracy grids, PGD/decision attacks, transferability matrices) pays for
that fancy-indexing loop.  This module provides interchangeable,
*bit-identical* kernel strategies that route the same accumulation through
float64 BLAS instead:

``gather``
    The legacy chunked LUT-gather loop, kept as the reference semantics.

``percode``
    The per-code BLAS decomposition ``result = sum_c onehot(A == c) @ T_c``
    with ``T_c[k, n] = sign[k, n] * LUT[c, mag[k, n]]``: at most ``2**bits``
    float64 matmuls over only the codes actually present in the batch.
    When the LUT admits an exact integer rank factorisation
    ``LUT = sum_i outer(f_i, g_i)`` (true for the exact, operand-truncation,
    partial-product-truncation, DRUM and mirror-adder array multipliers),
    the one-hot sum collapses through the LUT's row space into one gather
    and one ``dgemm`` for every rank: the code factors form a ``(2**bits,
    r)`` table ``F[c, i] = f_i[c]``, so ``take(F, A, axis=0)`` reshaped to
    ``(M, K*r)`` multiplies the interleaved weight factors ``W[k*r + i, n]
    = sign[k, n] * g_i[mag[k, n]]`` built once per layer (the rows of ``A``
    are taken in cache-sized blocks).

``errorcorrection``
    ``exact_matmul(A, W)`` via one BLAS product plus a correction drawn from
    the multiplier's ``error_lut()`` restricted to its nonzero structure
    (low-rank factors of the error table when they exist, otherwise only the
    error-active codes present in the batch).  Near-free for mild
    multipliers whose error tables are mostly zero or low-rank.

``sparse``
    The per-code one-hot sum evaluated as a *single* scipy.sparse matmul:
    the activation codes become one CSR one-hot matrix ``S`` of shape
    ``(M, 2**bits * K)`` with exactly ``K`` ones per row, and the weights
    become one stacked table ``T[c*K + k, n] = sign[k, n] * LUT[c,
    mag[k, n]]`` built once per layer (chunked over the codes present in
    the batch when the full stack exceeds a byte budget).  All arithmetic
    is int64, so the result is exact by construction.  This is the escape
    hatch for *full-rank* LUTs (the compressor-tree circuits M6/M9/A4/A8,
    Mitchell, noisy-LSB) that admit no low-rank factorisation: it does
    ``M*K`` row-accumulations instead of ``2**bits`` dense one-hot matmuls
    or the reference gather's fancy-indexed ``(m, K, N)`` tensor.

``exact``
    A plain rounded float64 BLAS product; only valid for bit-exact
    multipliers (the quantized accurate DNN).

``native``
    The compiled hot loop from :mod:`repro.axnn.native` (a ctypes C
    extension, switched off by ``REPRO_KERNEL_BACKEND=numpy``): uint8 codes
    gather from a pre-signed ``(C, 2C + 1)`` LUT through a uint16 index
    that folds each weight's sign into its magnitude, two code rows per
    pass, accumulating in int32 flushed to int64 before it could overflow,
    cache-blocked over output columns, GIL released for the whole call.
    Only constructible when a native backend resolved; ``auto`` prefers it
    over ``sparse`` for full-rank LUTs and ignores it otherwise (the
    low-rank BLAS decompositions already beat a scalar loop).

All BLAS paths operate on integer-valued float64 operands whose partial sums
are provably below 2**53, so the rounded accumulators are bit-identical to
the gather reference; kernels verify that bound at construction time and
fall back to an always-safe formulation when it cannot be guaranteed.  The
sparse and native paths accumulate in integers, so they are exact by
construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

try:  # scipy ships with the toolchain; degrade to gather if it ever vanishes
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - scipy is a baked-in dependency
    _scipy_sparse = None

from repro.errors import ConfigurationError, ShapeError
from repro.multipliers.base import Multiplier

#: canonical kernel strategy names (plus the "auto" selector)
KERNEL_STRATEGIES = (
    "gather",
    "percode",
    "errorcorrection",
    "sparse",
    "exact",
    "native",
)

#: accepted spellings for each canonical strategy name, keyed with every
#: separator (space, dash, underscore) stripped
_STRATEGY_ALIASES: Dict[str, str] = {
    "gather": "gather",
    "reference": "gather",
    "percode": "percode",
    "percodeblas": "percode",
    "blas": "percode",
    "errorcorrection": "errorcorrection",
    "errcorr": "errorcorrection",
    "sparse": "sparse",
    "onehot": "sparse",
    "sparseonehot": "sparse",
    "exact": "exact",
    "native": "native",
    "compiled": "native",
    "auto": "auto",
}

#: partial sums in the BLAS paths must stay below this to round exactly
_EXACT_FLOAT_BOUND = float(1 << 52)

#: give up on the integer rank factorisation beyond this many terms
_MAX_FACTOR_RANK = 24

#: abort the factorisation when residual entries grow past this magnitude
_FACTOR_VALUE_BOUND = 1 << 40

#: largest LUT side for which factor analysis is attempted (12-bit tables
#: are 16M entries; peeling them buys nothing the cache does not)
_MAX_ANALYSIS_BITS = 10

#: "auto" only picks the error-correction active-code loop below this count
_AUTO_ACTIVE_CODE_LIMIT = 32

#: byte budget for per-kernel memoised per-code row tables
_ROW_TABLE_CACHE_BYTES = 64 * 1024 * 1024

#: byte budget for one row block of the gathered (M, K*r) low-rank operand:
#: a block that stays in cache between its gather and its GEMM took about
#: half the time of a whole-batch gather on the conv layers' tall patch
#: matrices (AlexNet shapes, 2-core x86-64, OpenBLAS)
_LOW_RANK_BLOCK_BYTES = 4 * 1024 * 1024

#: byte budget for the sparse kernel's stacked (2**bits * K, N) weight table;
#: larger shapes fall back to chunking over the codes present in the batch
_SPARSE_STACK_BUDGET_BYTES = 256 * 1024 * 1024


def normalize_strategy(strategy: str) -> str:
    """Map a user-facing kernel name onto its canonical spelling.

    Case and the separators space/dash/underscore are ignored, so
    ``"per-code BLAS"``, ``"percode"`` and ``"error_correction"`` all
    resolve.
    """
    key = str(strategy).strip().lower()
    for separator in (" ", "-", "_"):
        key = key.replace(separator, "")
    try:
        return _STRATEGY_ALIASES[key]
    except KeyError:
        known = sorted(set(_STRATEGY_ALIASES.values()) | {"auto"})
        raise ConfigurationError(
            f"unknown kernel strategy {strategy!r}; known: {known}"
        ) from None


def integer_low_rank_factors(
    table: np.ndarray,
    max_rank: int = _MAX_FACTOR_RANK,
    value_bound: int = _FACTOR_VALUE_BOUND,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Exact integer rank factorisation ``table = sum_i outer(F[i], G[i])``.

    Performs Gaussian elimination with pivots restricted to entries that
    divide their whole column exactly, so every factor stays integral and the
    reconstruction is exact (not approximate).  Returns ``(F, G)`` with
    shapes ``(r, rows)`` / ``(r, cols)``, or ``None`` when no such
    factorisation with at most ``max_rank`` terms is found.  The zero table
    factorises with rank 0.
    """
    residual = np.asarray(table, dtype=np.int64).copy()
    if residual.ndim != 2:
        raise ShapeError("integer_low_rank_factors expects a 2-D table")
    fs, gs = [], []
    for _ in range(max_rank):
        if not residual.any():
            rows, cols = residual.shape
            if not fs:
                return (
                    np.zeros((0, rows), dtype=np.int64),
                    np.zeros((0, cols), dtype=np.int64),
                )
            return np.array(fs, dtype=np.int64), np.array(gs, dtype=np.int64)
        column_mass = np.abs(residual).sum(axis=0)
        peeled = False
        for b0 in np.argsort(-column_mass):
            column = residual[:, b0]
            nonzero = column[column != 0]
            if nonzero.size == 0:
                continue
            gcd = np.gcd.reduce(np.abs(nonzero))
            pivots = np.flatnonzero(np.abs(column) == gcd)
            if pivots.size == 0:
                continue  # gcd not attained by any entry: division inexact
            a0 = int(pivots[0])
            pivot = int(column[a0])
            f = column // pivot
            g = residual[a0, :].copy()
            residual = residual - np.outer(f, g)
            if np.abs(residual).max(initial=0) > value_bound:
                return None
            fs.append(f)
            gs.append(g)
            peeled = True
            break
        if not peeled:
            return None
    return None if residual.any() else (np.array(fs), np.array(gs))


@dataclass(frozen=True)
class MultiplierKernelProfile:
    """Cached per-multiplier structure used to build and select kernels."""

    #: exact integer factors of the product LUT, or None
    lut_factors: Optional[Tuple[np.ndarray, np.ndarray]]
    #: exact integer factors of the error LUT (approx - exact), or None
    error_factors: Optional[Tuple[np.ndarray, np.ndarray]]
    #: activation codes whose error-LUT row has any nonzero entry
    error_active_codes: np.ndarray
    #: fraction of nonzero entries in the error LUT
    error_density: float

    @property
    def lut_rank(self) -> Optional[int]:
        return None if self.lut_factors is None else len(self.lut_factors[0])

    @property
    def error_rank(self) -> Optional[int]:
        return None if self.error_factors is None else len(self.error_factors[0])


_PROFILE_CACHE: Dict[tuple, MultiplierKernelProfile] = {}

#: pre-signed native LUTs with their flush interval, see :func:`_presigned_lut`
_PRESIGNED_LUT_CACHE: Dict[tuple, Tuple[np.ndarray, int]] = {}

#: serialises first-touch profile analysis so concurrent kernel builds (the
#: parallel runtime shards batches across threads) share one cached profile
_PROFILE_LOCK = threading.Lock()


def multiplier_kernel_profile(multiplier: Multiplier) -> MultiplierKernelProfile:
    """Analyse (once per process per multiplier) the LUT structure.

    Safe under concurrent first-touch calls from worker threads: the
    analysis runs under a lock and every caller receives the same cached
    profile object.
    """
    key = multiplier._lut_cache_key()
    if key is not None and key in _PROFILE_CACHE:
        return _PROFILE_CACHE[key]
    with _PROFILE_LOCK:
        if key is not None and key in _PROFILE_CACHE:
            return _PROFILE_CACHE[key]
        error = multiplier.error_lut().astype(np.int64)
        if multiplier.bit_width <= _MAX_ANALYSIS_BITS:
            lut_factors = integer_low_rank_factors(multiplier.lut())
            error_factors = integer_low_rank_factors(error)
        else:
            lut_factors = None
            error_factors = None
        profile = MultiplierKernelProfile(
            lut_factors=lut_factors,
            error_factors=error_factors,
            error_active_codes=np.flatnonzero(np.any(error != 0, axis=1)),
            error_density=float(np.count_nonzero(error)) / float(error.size),
        )
        if key is not None:
            _PROFILE_CACHE[key] = profile
    return profile


def clear_profile_cache() -> None:
    """Drop cached multiplier profiles, pre-signed native LUTs and the
    resolved native backend.

    Resetting the native backend too means a test (or a long-lived service
    reconfiguring itself) can flip ``REPRO_KERNEL_BACKEND`` and have both
    the "auto" strategy choice and subsequent kernel builds re-resolve.
    """
    from repro.axnn import native as _native

    _PROFILE_CACHE.clear()
    _PRESIGNED_LUT_CACHE.clear()
    _native.reset_backend()


def _factor_sum_bound(factors: Tuple[np.ndarray, np.ndarray], inner: int) -> float:
    """Upper bound on any partial sum of a rank-decomposed accumulation."""
    fs, gs = factors
    if len(fs) == 0:
        return 0.0
    per_term = np.abs(fs).max(axis=1).astype(np.float64) * np.abs(gs).max(
        axis=1
    ).astype(np.float64)
    return float(per_term.sum()) * float(inner)


class MatmulKernel:
    """A bound approximate-matmul kernel: fixed multiplier and weights.

    Kernels are constructed once per Ax-layer (weights are constant during
    inference) and then invoked with batches of activation codes.  Every
    strategy returns the same int64 accumulator as the gather reference.
    """

    strategy: str = "base"

    def __init__(
        self,
        multiplier: Multiplier,
        weight_sign: np.ndarray,
        weight_magnitude: np.ndarray,
    ) -> None:
        weight_sign = np.asarray(weight_sign, dtype=np.int64)
        weight_magnitude = np.asarray(weight_magnitude, dtype=np.int64)
        if weight_sign.ndim != 2 or weight_sign.shape != weight_magnitude.shape:
            raise ShapeError(
                "kernel weights must be 2-D sign/magnitude arrays of equal shape"
            )
        if weight_magnitude.size and (
            weight_magnitude.min() < 0 or weight_magnitude.max() > multiplier.operand_max
        ):
            raise ConfigurationError(
                f"weight magnitudes exceed the {multiplier.bit_width}-bit operand range"
            )
        self.multiplier = multiplier
        self.weight_sign = weight_sign
        self.weight_magnitude = weight_magnitude
        self.inner, self.outputs = weight_sign.shape

    # ------------------------------------------------------------------ API
    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        """Integer accumulator ``(M, K) @ (K, N) -> (M, N)`` (int64).

        ``activation_codes`` may have any integer dtype; the Ax layers pass
        the narrowest that holds their scheme's codes (uint8 for 8 bits),
        and the result is the same for every dtype.  Every strategy returns
        a fresh, writable int64 array that shares no memory with the codes,
        the bound weights or an earlier result, so callers may finish the
        layer epilogue in place on it.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable strategy summary (used by AxModel.kernel_report)."""
        return self.strategy

    # ------------------------------------------------------------ internals
    def _check_codes(self, activation_codes: np.ndarray) -> np.ndarray:
        """The codes as a 2-D integer array, in their own dtype.

        Integer codes are not widened (the layers hand in uint8): a kernel
        that does arithmetic on the codes themselves widens them locally.
        """
        codes = np.asarray(activation_codes)
        if codes.dtype.kind not in "iu":
            codes = codes.astype(np.int64)
        if codes.ndim != 2:
            raise ShapeError("kernel matmul expects a 2-D activation-code matrix")
        if codes.shape[1] != self.inner:
            raise ShapeError(
                f"inner dimensions disagree: {codes.shape} vs "
                f"{self.weight_sign.shape}"
            )
        return codes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(multiplier={self.multiplier.name!r}, "
            f"shape=({self.inner}, {self.outputs}))"
        )


class GatherKernel(MatmulKernel):
    """The legacy chunked LUT-gather loop (reference semantics)."""

    strategy = "gather"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        self._lut = multiplier.lut()

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        from repro.axnn.approx_ops import approx_matmul

        codes = self._check_codes(activation_codes)
        return approx_matmul(codes, self.weight_sign, self.weight_magnitude, self._lut)


class ExactBLASKernel(MatmulKernel):
    """Rounded float64 BLAS product; only valid for bit-exact multipliers."""

    strategy = "exact"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        if not multiplier.is_exact():
            raise ConfigurationError(
                f"the 'exact' kernel requires a bit-exact multiplier, got "
                f"{multiplier.name!r}"
            )
        self._signed_weights = (weight_sign * weight_magnitude).astype(np.float64)

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        product = codes.astype(np.float64) @ self._signed_weights
        return np.rint(product).astype(np.int64)


class _TableOperand:
    """Weight-bound evaluation of one source table (product LUT or error LUT).

    Shared machinery of the per-code and error-correction kernels.  When the
    table has an exact integer rank factorisation ``sum_i outer(f_i, g_i)``
    within the float64 exactness bound, the per-code one-hot sum is one
    gather plus one GEMM for every rank: the code factors are kept as one
    row-major ``(2**bits, r)`` table, the weight factors interleaved as
    ``(K*r, N)`` with row ``k*r + i`` equal to ``sign[k] * g_i[mag[k]]``, so
    ``take(table, A, axis=0).reshape(M, K*r) @ weight_factors`` is the whole
    product, taken in row blocks of at most :data:`_LOW_RANK_BLOCK_BYTES`
    gathered bytes so each block is still in cache for its GEMM.  Every
    partial sum is an integer below ``2**52`` (checked by
    :func:`_factor_sum_bound`), so neither the BLAS summation order nor the
    blocking can change the result.  Otherwise per-code row tables
    ``T_c = sign * table[c, mag]`` are built lazily, memoised under a byte
    budget, and applied as one one-hot matmul per code present.
    """

    def __init__(
        self,
        table: np.ndarray,
        factors: Optional[Tuple[np.ndarray, np.ndarray]],
        weight_sign: np.ndarray,
        weight_magnitude: np.ndarray,
        reserved_bound: float = 0.0,
    ) -> None:
        inner, outputs = weight_sign.shape
        self.inner = inner
        self.outputs = outputs
        self.rank: Optional[int] = None
        self.weight_magnitude = weight_magnitude
        if factors is not None and (
            _factor_sum_bound(factors, inner) + reserved_bound < _EXACT_FLOAT_BOUND
        ):
            fs, gs = factors
            self.rank = len(fs)
            #: (2**bits, r) row-major table of code factors, F[c, i] = f_i[c]
            self._code_factors = np.ascontiguousarray(fs.T, dtype=np.float64)
            #: (K*r, N) interleaved weight factors,
            #: row k*r + i = sign[k] * g_i[mag[k]]
            weight_factors = gs.astype(np.float64)[:, weight_magnitude]
            weight_factors *= weight_sign.astype(np.float64)[None, :, :]
            self._weight_factors = np.ascontiguousarray(
                weight_factors.transpose(1, 0, 2)
            ).reshape(inner * self.rank, outputs)
        else:
            self._table_rows = table.astype(np.float64)
            self._sign_f = weight_sign.astype(np.float64)
            self._row_tables: Dict[int, np.ndarray] = {}
            self._row_table_bytes = 0
            # memoisation is shared when the bound kernel serves concurrent
            # batch shards; the lock keeps the byte accounting consistent
            self._row_table_lock = threading.Lock()

    @property
    def is_low_rank(self) -> bool:
        return self.rank is not None

    def add_low_rank_product(
        self, codes: np.ndarray, accumulator: np.ndarray
    ) -> np.ndarray:
        """Add the fused low-rank contribution for ``codes`` in place."""
        if self.rank == 0:
            return accumulator
        width = self.inner * self.rank
        block = max(1, _LOW_RANK_BLOCK_BYTES // max(1, 8 * width))
        for start in range(0, codes.shape[0], block):
            rows = codes[start : start + block]
            gathered = np.take(self._code_factors, rows, axis=0)
            gathered = gathered.reshape(rows.shape[0], width)
            accumulator[start : start + block] += gathered @ self._weight_factors
        return accumulator

    def _row_table(self, code: int) -> np.ndarray:
        table = self._row_tables.get(code)
        if table is None:
            table = self._sign_f * self._table_rows[code][self.weight_magnitude]
            with self._row_table_lock:
                if code in self._row_tables:
                    table = self._row_tables[code]
                elif self._row_table_bytes + table.nbytes <= _ROW_TABLE_CACHE_BYTES:
                    self._row_tables[code] = table
                    self._row_table_bytes += table.nbytes
        return table

    def add_per_code_products(
        self,
        codes: np.ndarray,
        accumulator: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Add one one-hot matmul per (active) code present, in place."""
        for code in np.unique(codes):
            if active is not None and not active[int(code)]:
                continue
            onehot = (codes == code).astype(np.float64)
            accumulator += onehot @ self._row_table(int(code))
        return accumulator


class PerCodeBLASKernel(MatmulKernel):
    """Per-code one-hot decomposition routed through float64 BLAS.

    With an exact integer rank factorisation of the LUT the per-code sum
    collapses into ``r`` fused BLAS products; otherwise at most one matmul
    per activation code present in the batch is issued, with the per-code
    weight tables ``T_c`` built lazily and memoised under a byte budget.
    """

    strategy = "percode"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        profile = multiplier_kernel_profile(multiplier)
        self._operand = _TableOperand(
            multiplier.lut(), profile.lut_factors, weight_sign, weight_magnitude
        )

    def describe(self) -> str:
        if self._operand.is_low_rank:
            return f"percode[low-rank r={self._operand.rank}]"
        return "percode[per-code loop]"

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        accumulator = np.zeros((codes.shape[0], self.outputs), dtype=np.float64)
        if self._operand.is_low_rank:
            self._operand.add_low_rank_product(codes, accumulator)
        else:
            self._operand.add_per_code_products(codes, accumulator)
        return np.rint(accumulator).astype(np.int64)


class ErrorCorrectionKernel(MatmulKernel):
    """Exact BLAS product plus a correction drawn from the error LUT.

    The correction uses the error table's exact integer factors when they
    exist, and otherwise loops over only the error-active codes present in
    the batch (the rows of ``error_lut()`` with any nonzero entry).
    """

    strategy = "errorcorrection"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        qmax = float(multiplier.operand_max)
        exact_bound = qmax * qmax * qmax * max(self.inner, 1)
        if exact_bound >= _EXACT_FLOAT_BOUND:
            raise ConfigurationError(
                "operand range too wide for an exactly-rounded BLAS product"
            )
        self._signed_weights = (weight_sign * weight_magnitude).astype(np.float64)
        profile = multiplier_kernel_profile(multiplier)
        self._operand = _TableOperand(
            multiplier.error_lut(),
            profile.error_factors,
            weight_sign,
            weight_magnitude,
            reserved_bound=exact_bound,
        )
        if not self._operand.is_low_rank:
            self._active = np.zeros(multiplier.operand_max + 1, dtype=bool)
            self._active[profile.error_active_codes] = True

    def describe(self) -> str:
        if self._operand.is_low_rank:
            return f"errorcorrection[exact + low-rank r={self._operand.rank}]"
        return "errorcorrection[exact + active-code loop]"

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        accumulator = codes.astype(np.float64) @ self._signed_weights
        if self._operand.is_low_rank:
            self._operand.add_low_rank_product(codes, accumulator)
        else:
            self._operand.add_per_code_products(codes, accumulator, self._active)
        return np.rint(accumulator).astype(np.int64)


class SparseOneHotKernel(MatmulKernel):
    """Full-rank LUT matmul as a single scipy.sparse one-hot product.

    The accumulation ``result = sum_c onehot(A == c) @ T_c`` is evaluated in
    one shot: the activation codes become a CSR matrix ``S`` of shape
    ``(M, C*K)`` holding exactly one 1 per ``(m, k)`` entry at column
    ``A[m, k] * K + k``, and the weight side becomes the stacked table
    ``T[c*K + k, n] = sign[k, n] * LUT[c, mag[k, n]]``, built once per layer
    at construction when it fits the byte budget (every layer of the repo's
    model zoo does).  All arithmetic is integer, so the accumulator is
    exact — bit-identical to the gather reference with no float-rounding
    argument required; int32 operands are used when the worst-case partial
    sum ``K * max|LUT|`` fits in 31 bits (half the memory traffic), int64
    otherwise.

    Shapes whose stacked table exceeds the budget adapt per call: batches
    with ``M >= 2*C`` rebuild the table in budget-bounded code chunks (the
    ``O(C*K*N)`` rebuild is then dominated by the ``O(M*K*N)`` product),
    while smaller batches delegate to the chunked gather reference, which
    is the cheapest known evaluation when tables cannot be amortised.
    """

    strategy = "sparse"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        if _scipy_sparse is None:  # pragma: no cover - scipy is baked in
            raise ConfigurationError(
                "the 'sparse' kernel requires scipy; install it or pick "
                "another strategy"
            )
        self._lut = multiplier.lut()
        self.codes_total = multiplier.operand_max + 1
        lut_peak = max(1, int(np.abs(self._lut).max(initial=1)))
        self._dtype = (
            np.int32 if max(self.inner, 1) * lut_peak < (1 << 31) else np.int64
        )
        row_bytes = self.inner * self.outputs * np.dtype(self._dtype).itemsize
        #: codes per chunk when the stacked table is built on the fly
        self.group_codes = max(1, _SPARSE_STACK_BUDGET_BYTES // max(1, row_bytes))
        if self.codes_total * row_bytes <= _SPARSE_STACK_BUDGET_BYTES:
            self._stacked_table: Optional[np.ndarray] = self._stack_rows(
                np.arange(self.codes_total)
            )
        else:
            self._stacked_table = None

    def describe(self) -> str:
        bits = 8 * np.dtype(self._dtype).itemsize
        if self._stacked_table is not None:
            return f"sparse[stacked one-hot, int{bits}]"
        return (
            f"sparse[grouped one-hot, int{bits}, {self.group_codes} codes/chunk, "
            "gather below amortisation]"
        )

    def _stack_rows(self, codes_subset: np.ndarray) -> np.ndarray:
        """Stacked weight table ``(len(subset)*K, N)`` for a code subset."""
        rows = self._lut[np.asarray(codes_subset, dtype=np.intp)]
        gathered = rows.astype(self._dtype)[:, self.weight_magnitude]
        gathered *= self.weight_sign[None, :, :].astype(self._dtype)
        return gathered.reshape(-1, self.outputs)

    def _onehot(self, codes: np.ndarray, n_code_blocks: int):
        """CSR one-hot of shape ``(M, n_code_blocks * K)`` — K ones per row."""
        m, k = codes.shape
        # widen first: ``codes * k`` would wrap in the codes' narrow dtype
        columns = (
            codes.astype(np.int64) * k + np.arange(k, dtype=np.int64)[None, :]
        ).ravel()
        indptr = np.arange(m + 1, dtype=np.int64) * k
        data = np.ones(m * k, dtype=self._dtype)
        return _scipy_sparse.csr_array(
            (data, columns, indptr), shape=(m, n_code_blocks * k)
        )

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        if codes.size and (codes.min() < 0 or codes.max() >= self.codes_total):
            raise ConfigurationError(
                f"activation codes outside the {self.multiplier.bit_width}-bit "
                "operand range"
            )
        if self._stacked_table is not None:
            product = self._onehot(codes, self.codes_total) @ self._stacked_table
            return np.asarray(product, dtype=np.int64)
        if codes.shape[0] >= 2 * self.codes_total:
            return self._matmul_grouped(codes)
        # Below the amortisation point the table rebuild would cost more
        # than the product itself; the chunked gather reference is cheapest.
        from repro.axnn.approx_ops import approx_matmul

        return approx_matmul(codes, self.weight_sign, self.weight_magnitude, self._lut)

    def _matmul_grouped(self, codes: np.ndarray) -> np.ndarray:
        """Chunk the one-hot product over groups of codes present in the batch."""
        result = np.zeros((codes.shape[0], self.outputs), dtype=np.int64)
        present = np.unique(codes)
        k = self.inner
        for start in range(0, present.size, self.group_codes):
            group = present[start : start + self.group_codes]
            position = np.full(self.codes_total, -1, dtype=np.int64)
            position[group] = np.arange(group.size)
            in_group = position[codes] >= 0
            row_index, k_index = np.nonzero(in_group)
            columns = position[codes[row_index, k_index]] * k + k_index
            block = _scipy_sparse.csr_array(
                (np.ones(row_index.size, dtype=self._dtype), (row_index, columns)),
                shape=(codes.shape[0], group.size * k),
            )
            result += block @ self._stack_rows(group)
        return result


class NativeLUTKernel(MatmulKernel):
    """Compiled LUT accumulation from :mod:`repro.axnn.native`.

    The weights are packed once per layer at construction: each sign is
    folded into its magnitude as a uint16 column index (``mag``, ``C +
    mag`` or the zero column ``2C``) into a pre-signed ``(C, 2C + 1)`` LUT
    holding ``LUT``, ``-LUT`` and zeros, int16 when every entry fits and
    int32 otherwise.  The loop itself (see ``native/kernels.c``) is one
    gather and one add per product, two code rows per pass, cache-blocked
    over output columns; it accumulates in int32 and flushes to int64 every
    ``kc = (2**31 - 1) // max|LUT|`` k-steps, which makes the result exact
    by construction.  uint8 codes reach the loop as they are (range-checked
    only when their dtype could exceed the operand range); ctypes releases
    the GIL for the whole call, so the threaded batch-sharding runtime
    scales where the scipy.sparse path serialised.

    Construction fails with :class:`ConfigurationError` when no native
    backend resolved (``REPRO_KERNEL_BACKEND=numpy``, or no C compiler is
    available) or when the multiplier does not fit the packed layout (see
    :func:`_native_lut_peak`); ``"auto"`` only selects this strategy when
    it is constructible.
    """

    strategy = "native"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        from repro.axnn import native as _native

        backend = _native.get_backend()
        if backend is None:
            raise ConfigurationError(
                "the 'native' kernel requires the compiled backend: a C "
                f"compiler, and {_native.BACKEND_ENV_VAR} unset or 'auto'"
            )
        if weight_sign.size and int(np.abs(weight_sign).max()) > 1:
            raise ConfigurationError(
                "the 'native' kernel expects sign values in {-1, 0, 1}"
            )
        self._backend = backend
        self._lut_signed, self._kc = _presigned_lut(multiplier)
        cols = self._lut_signed.shape[1] // 2
        self._index = np.where(
            weight_sign > 0,
            weight_magnitude,
            np.where(weight_sign < 0, cols + weight_magnitude, 2 * cols),
        ).astype(np.uint16)
        self.codes_total = multiplier.operand_max + 1

    def describe(self) -> str:
        bits = 8 * self._lut_signed.dtype.itemsize
        return f"native[{self._backend.name}, int{bits} lut]"

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        limits = np.iinfo(codes.dtype)
        dtype_fits = limits.min >= 0 and limits.max < self.codes_total
        if not dtype_fits and codes.size and (
            codes.min() < 0 or codes.max() >= self.codes_total
        ):
            raise ConfigurationError(
                f"activation codes outside the {self.multiplier.bit_width}-bit "
                "operand range"
            )
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        # the compiled loop writes every output element
        out = np.empty((codes.shape[0], self.outputs), dtype=np.int64)
        if out.size:
            self._backend.lut_matmul(
                codes, self._index, self._lut_signed, self._kc, out
            )
        return out


def _presigned_lut(multiplier: Multiplier) -> Tuple[np.ndarray, int]:
    """The native kernel's pre-signed LUT and its int32 flush interval.

    The table is ``(C, 2C + 1)``: columns ``LUT``, ``-LUT``, then one zero
    column, int16 when every entry fits and int32 otherwise.  ``kc =
    (2**31 - 1) // max|LUT|`` products always fit an int32 partial sum.
    Built once per multiplier LUT and shared read-only by every layer and
    victim that uses it, like the LUT itself.
    """
    key = multiplier._lut_cache_key()
    cached = _PRESIGNED_LUT_CACHE.get(key) if key is not None else None
    if cached is not None:
        return cached
    peak = _native_lut_peak(multiplier)
    lut = multiplier.lut()
    cols = lut.shape[1]
    signed = np.zeros(
        (lut.shape[0], 2 * cols + 1),
        dtype=np.int16 if peak < (1 << 15) else np.int32,
    )
    signed[:, :cols] = lut
    signed[:, cols : 2 * cols] = -lut
    signed.flags.writeable = False
    entry = (signed, (2**31 - 1) // max(1, peak))
    if key is not None:
        with _PROFILE_LOCK:
            entry = _PRESIGNED_LUT_CACHE.setdefault(key, entry)
    return entry


def _native_lut_peak(multiplier: Multiplier) -> int:
    """``max|LUT|`` of a multiplier that fits the native packed layout.

    The one eligibility rule of the native kernel, shared by its
    construction and by ``"auto"`` selection: operands must pack to uint8
    codes and every LUT entry must fit an int32.  Raises
    :class:`ConfigurationError` naming the limit a multiplier exceeds.
    """
    if multiplier.operand_max > 255:
        raise ConfigurationError(
            "the 'native' kernel packs operands to 8 bits; "
            f"{multiplier.name!r} has operand_max={multiplier.operand_max}"
        )
    lut = multiplier.lut()
    peak = max(int(lut.max(initial=0)), -int(lut.min(initial=0)))
    if peak >= (1 << 31):
        raise ConfigurationError(
            "the 'native' kernel packs the LUT to at most 32 bits; "
            f"{multiplier.name!r} has |entry| up to {peak}"
        )
    return peak


def _native_strategy_available(multiplier: Multiplier) -> bool:
    """Whether ``"auto"`` may route ``multiplier`` to the native kernel."""
    from repro.axnn import native as _native

    if _native.get_backend() is None:
        return False
    try:
        _native_lut_peak(multiplier)
    except ConfigurationError:
        return False
    return True


_KERNEL_CLASSES = {
    "gather": GatherKernel,
    "percode": PerCodeBLASKernel,
    "errorcorrection": ErrorCorrectionKernel,
    "sparse": SparseOneHotKernel,
    "exact": ExactBLASKernel,
    "native": NativeLUTKernel,
}

KernelSpec = Union[str, MatmulKernel]


def select_strategy(multiplier: Multiplier) -> str:
    """The "auto" heuristic: pick the cheapest bit-identical strategy.

    Bit-exact multipliers take the plain BLAS product.  Otherwise the choice
    follows the error-LUT structure: a cheap low-rank (or sparse-row) error
    table selects the error-correction kernel, a low-rank product LUT
    selects the fused per-code BLAS kernel, and unstructured full-rank
    tables (the compressor-tree circuit multipliers, Mitchell, noisy-LSB)
    take the native compiled kernel when a backend resolved, else the
    sparse one-hot kernel — a single int64 scipy.sparse product, which
    replaces the fancy-indexed gather loop the legacy path used.
    ``gather`` remains available by explicit request (and as the fallback
    if scipy is ever absent).
    """
    if multiplier.is_exact():
        return "exact"
    profile = multiplier_kernel_profile(multiplier)
    lut_rank = profile.lut_rank
    error_rank = profile.error_rank
    if error_rank is not None and (lut_rank is None or error_rank + 1 < lut_rank):
        return "errorcorrection"
    if lut_rank is not None:
        return "percode"
    if profile.error_active_codes.size <= _AUTO_ACTIVE_CODE_LIMIT:
        return "errorcorrection"
    if _native_strategy_available(multiplier):
        return "native"
    return "sparse" if _scipy_sparse is not None else "gather"


def make_kernel(
    multiplier: Multiplier,
    weight_sign: np.ndarray,
    weight_magnitude: np.ndarray,
    strategy: KernelSpec = "auto",
) -> MatmulKernel:
    """Build a bound kernel for ``(multiplier, weights)``.

    ``strategy`` is a canonical kernel name (see :data:`KERNEL_STRATEGIES`),
    an accepted alias, ``"auto"`` (structure-based selection), or an already
    constructed :class:`MatmulKernel` (returned unchanged).
    """
    if isinstance(strategy, MatmulKernel):
        return strategy
    name = normalize_strategy(strategy)
    if name == "auto":
        name = select_strategy(multiplier)
    return _KERNEL_CLASSES[name](multiplier, weight_sign, weight_magnitude)

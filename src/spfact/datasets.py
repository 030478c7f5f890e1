"""Synthetic instance generation, MovieLens ingestion, splits, metrics.

Synthetic instances follow the usual completion benchmark recipe: a rank-r
product of i.i.d. Gaussian factors, additive Gaussian noise at a target
SNR, and a uniformly sampled observation set. SNR is defined on the full
matrix, signal power |X|_F^2 / (m n). Three independent seeded streams
(factors, noise, mask) keep instances reproducible bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .observed import MaskSplit, ObservedMatrix, predicted_values


@dataclass(frozen=True)
class SynthSpec:
    m: int
    n: int
    rank: int
    snr_db: float
    missing_rate: float
    seed: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("shape must be positive")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise ValueError("rank must lie in [1, min(m, n)]")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")


@dataclass
class GroundTruth:
    """A generated instance: the clean matrix, the noisy observed triplets,
    and the held-out index set (rows, cols) covering the unobserved part."""

    x_true: np.ndarray
    y_obs: ObservedMatrix
    test_mask: tuple


def gen_synthetic(spec):
    """Generate a low-rank completion instance from a SynthSpec.

    Noise variance is |X|_F^2 / (m n 10^(snr/10)); snr_db = inf disables
    noise. The observed set has round((1 - missing_rate) m n) entries
    drawn uniformly without replacement.
    """
    ss = np.random.SeedSequence(spec.seed)
    rng_fact, rng_noise, rng_mask = (np.random.default_rng(s) for s in ss.spawn(3))
    m, n, r = spec.m, spec.n, spec.rank

    A = rng_fact.standard_normal((m, r))
    B = rng_fact.standard_normal((n, r))
    x_true = A @ B.T

    y_full = x_true
    if math.isfinite(spec.snr_db):
        sig_power = np.sum(x_true * x_true)
        noise_var = sig_power / (m * n * 10.0 ** (spec.snr_db / 10.0))
        y_full = x_true + np.sqrt(noise_var) * rng_noise.standard_normal((m, n))

    k = int(round((1.0 - spec.missing_rate) * m * n))
    observed = np.zeros(m * n, dtype=bool)
    observed[rng_mask.permutation(m * n)[:k]] = True
    obs_lin = np.flatnonzero(observed)
    test_lin = np.flatnonzero(~observed)
    y_obs = ObservedMatrix(m, n, *np.divmod(obs_lin, n), y_full.ravel()[obs_lin])
    return GroundTruth(x_true, y_obs, np.divmod(test_lin, n))


def _fields(path, lineno, line, types, expected, sep=None):
    # The fields of a text line split at sep (whitespace when None), each
    # converted by its entry of types; any other line raises naming it.
    parts = line.strip().split(sep)
    if len(parts) == len(types):
        try:
            return [t(x) for t, x in zip(types, parts)]
        except ValueError:
            pass
    raise ValueError(f"{path}:{lineno}: expected {expected}, got {line.strip()!r}")


def parse_movielens(path):
    """Parse a MovieLens u.data style file into an ObservedMatrix.

    Lines are 'user<TAB>item<TAB>rating<TAB>timestamp' with 1-based ids;
    the timestamp is discarded and ids map to 0-based indices. Shape is
    (max user, max item). Malformed lines and duplicate (user, item)
    pairs raise with the offending line or pair named.
    """
    users, items, ratings = [], [], []
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            u, i, rating, _ = _fields(
                path, lineno, line, (int, int, float, str), "4 tab-separated fields", "\t"
            )
            if u < 1 or i < 1:
                raise ValueError(f"{path}:{lineno}: ids must be 1-based positive")
            if (u, i) in seen:
                raise ValueError(f"{path}: duplicate rating for (user={u}, item={i})")
            seen.add((u, i))
            users.append(u - 1)
            items.append(i - 1)
            ratings.append(rating)
    if not users:
        raise ValueError(f"{path}: no observations")
    return ObservedMatrix(max(users) + 1, max(items) + 1, users, items, ratings)


def split(obs, train_frac, seed):
    """Uniform random partition of the triplets into train and test."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(obs.nnz)
    k = int(round(train_frac * obs.nnz))
    tr, te = perm[:k], perm[k:]
    train = ObservedMatrix(obs.m, obs.n, obs.row[tr], obs.col[tr], obs.val[tr])
    test = ObservedMatrix(obs.m, obs.n, obs.row[te], obs.col[te], obs.val[te])
    return MaskSplit(train, test)


def _estimate(X_hat):
    if hasattr(X_hat, "matrix"):
        return X_hat.matrix()
    return np.asarray(X_hat, dtype=float)


def relative_error(F, x_true, test_mask):
    """Recovery error |X_hat - X_true|_F / |X_true|_F over held-out entries."""
    rows, cols = test_mask
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("test mask is empty")
    X_hat = _estimate(F)
    if X_hat.shape != x_true.shape:
        raise ValueError(
            f"estimate shape {X_hat.shape} does not match reference shape {x_true.shape}"
        )
    den = np.linalg.norm(x_true[rows, cols])
    if den == 0.0:
        raise ValueError("held-out entries of the reference matrix are all zero")
    num = np.linalg.norm(X_hat[rows, cols] - x_true[rows, cols])
    return float(num / den)


def nmae(F, test, r_min, r_max):
    """Mean absolute prediction error normalized by the rating range.

    Predictions are not clipped to [r_min, r_max].
    """
    if r_max <= r_min:
        raise ValueError("r_max must exceed r_min")
    if test.nnz == 0:
        raise ValueError("test set is empty")
    pred = predicted_values(test, F)
    return float(np.mean(np.abs(test.val - pred)) / (r_max - r_min))


def _write_fixture(path, obs, rank, snr, missing, seed):
    # The one writer of the fixture text format (see save_fixture).
    with open(path, "w") as fh:
        fh.write(f"{obs.m} {obs.n} {rank} {float(snr)!r} {float(missing)!r} {seed}\n")
        for i, j, v in zip(obs.row, obs.col, obs.val):
            fh.write(f"{i} {j} {float(v)!r}\n")


def save_fixture(path, spec, obs):
    """Write obs, generated from spec, in the fixture text format.

    Header line 'm n r snr missing seed', then one 'row col value' line
    per observed triplet with full-precision values.
    """
    _write_fixture(path, obs, spec.rank, spec.snr_db, spec.missing_rate, spec.seed)


def load_fixture(path):
    """Read a fixture file back into (SynthSpec, ObservedMatrix, GroundTruth).

    When the header parameters describe a generatable instance, the
    ground truth is re-derived by re-running the seeded generator and
    checking that the stored triplets match it exactly; on mismatch (a
    fixture produced elsewhere) the ground truth is None and metrics
    that need it are unavailable. A malformed line raises naming its number.
    """
    with open(path) as fh:
        m, n, r, snr, missing, seed = _fields(
            path, 1, fh.readline(), (int, int, int, float, float, int), "a header"
        )
        rows, cols, vals = [], [], []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            i, j, v = _fields(path, lineno, line, (int, int, float), "'row col value'")
            rows.append(i)
            cols.append(j)
            vals.append(v)
    obs = ObservedMatrix(m, n, rows, cols, vals)

    spec = None
    truth = None
    if 1 <= r <= min(m, n) and 0.0 <= missing < 1.0 and not math.isnan(snr):
        spec = SynthSpec(m, n, r, snr, missing, seed)
        candidate = gen_synthetic(spec)
        same = (
            candidate.y_obs.nnz == obs.nnz
            and np.array_equal(candidate.y_obs.row, obs.row)
            and np.array_equal(candidate.y_obs.col, obs.col)
            and np.array_equal(candidate.y_obs.val, obs.val)
        )
        if same:
            truth = candidate
    return spec, obs, truth

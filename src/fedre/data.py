"""Synthetic datasets, heterogeneity partitioners, and CSV import.

Partitioning happens on the full dataset; each client then splits its own
shard into train/test. Two heterogeneity modes are provided: Dirichlet
proportions per category (pra) and fixed categories-per-client shard dealing
(pat), plus an exponential long-tail subsampler that composes with pra. Their
settings are stated once, with defaults and bounds, on config.PartitionConfig.
"""

import csv
from dataclasses import dataclass

import numpy as np

PRA = "pra"
PAT = "pat"
LONGTAIL = "longtail"
PARTITION_MODES = (PRA, PAT, LONGTAIL)


@dataclass(eq=False)
class Dataset:
    X: np.ndarray  # (n, dim)
    y: np.ndarray  # (n,) integer labels
    num_classes: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ValueError("X must be (n, dim) and y must be (n,)")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y lengths differ")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels outside [0, num_classes)")
        if not np.isfinite(self.X).all():
            raise ValueError("features must be finite")

    def __len__(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]

    def class_indices(self, c):
        return np.flatnonzero(self.y == c)

    def class_counts(self):
        return np.bincount(self.y, minlength=self.num_classes)

    def subset(self, idx):
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.X[idx], self.y[idx], self.num_classes)


def _circle_means(num_classes, dim, radius):
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = np.zeros((num_classes, dim))
    means[:, 0] = radius * np.cos(angles)
    if dim > 1:
        means[:, 1] = radius * np.sin(angles)
    return means


def make_blobs(num_classes, per_class, dim, spread, seed):
    """Isotropic Gaussian clusters with means on a circle of radius 3*spread."""
    rng = np.random.default_rng(seed)
    means = _circle_means(num_classes, dim, 3.0 * spread)
    # in place, a class block at a time: means[y] + spread * noise, no temporaries
    X = rng.standard_normal((num_classes * per_class, dim))
    X *= spread
    X.reshape(num_classes, per_class, dim)[...] += means[:, None, :]
    return Dataset(X, np.repeat(np.arange(num_classes), per_class), num_classes)


def _largest_remainder(shares, total):
    """Apportion `total` items proportionally to `shares` (sums preserved)."""
    shares = np.asarray(shares, dtype=float)
    raw = shares / shares.sum() * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _dirichlet(alpha, size, rng):
    """Dirichlet(alpha) shares by Gamma(alpha, 1) normalization. A huge
    alpha's draws are scaled first, so that their sum cannot overflow. A
    tiny alpha can underflow every draw to 0; that draw returns the
    alpha -> 0 limit, all of the mass on one client drawn uniformly."""
    g = rng.gamma(alpha, 1.0, size)
    if g.max() > np.finfo(float).max / size:
        g = g / g.max()
    total = g.sum()
    if total > 0:
        return g / total
    return np.eye(size)[rng.integers(size)]


def _shard(ds, index_arrays):
    """The subset of ds at the sorted union of disjoint index arrays."""
    return ds.subset(np.sort(np.concatenate([np.empty(0, dtype=int), *index_arrays])))


def _partition_pra(ds, num_clients, alpha, rng):
    per_client = [[] for _ in range(num_clients)]
    for c in range(ds.num_classes):
        idx = ds.class_indices(c)
        if idx.size == 0:
            continue
        shares = _dirichlet(alpha, num_clients, rng)
        counts = _largest_remainder(shares, idx.size)
        shards = np.split(rng.permutation(idx), np.cumsum(counts)[:-1])
        for ix, shard in zip(per_client, shards):
            ix.append(shard)
    return [_shard(ds, ix) for ix in per_client]


def _partition_pat(ds, num_clients, categories_per_client, rng):
    """Deal per-category shards so each client holds exactly
    categories_per_client distinct categories with varying sizes."""
    C = ds.num_classes
    cpc = categories_per_client
    if cpc > C:
        raise ValueError(f"categories_per_client {cpc} exceeds {C} categories")
    total_slots = num_clients * cpc
    if total_slots % C != 0:
        raise ValueError(
            f"cannot deal {C} categories evenly: num_clients*categories_per_client"
            f" = {total_slots} is not divisible by {C}"
        )
    shards_per_cat = total_slots // C
    starved = np.flatnonzero(ds.class_counts() < shards_per_cat).tolist()
    if starved:
        raise ValueError(
            f"categories {starved} have fewer samples than the {shards_per_cat}"
            " shards they must supply"
        )
    cat_perm = rng.permutation(C)
    client_perm = rng.permutation(num_clients)
    slots = np.arange(total_slots)  # slot k * cpc + j deals client k its j-th category
    dealt = cat_perm[slots % C]
    holders = client_perm[slots // cpc]
    per_client = [[] for _ in range(num_clients)]
    for c in range(C):
        idx = rng.permutation(ds.class_indices(c))
        sizes = _largest_remainder(_dirichlet(1.0, shards_per_cat, rng), idx.size)
        while (sizes == 0).any():  # every dealt shard must be nonempty
            sizes[int(np.argmax(sizes == 0))] += 1
            sizes[int(np.argmax(sizes))] -= 1
        for k, shard in zip(holders[dealt == c], np.split(idx, np.cumsum(sizes)[:-1])):
            per_client[k].append(shard)
    return [_shard(ds, ix) for ix in per_client]


def apply_longtail(ds, imbalance_factor, seed):
    """Subsample category c to max(1, round(n_max * IF^(-c/(C-1)))) samples."""
    C = ds.num_classes
    if C == 1 or imbalance_factor == 1:
        return ds.subset(np.arange(len(ds)))
    rng = np.random.default_rng(seed)
    n_max = int(ds.class_counts().max())
    keep = []
    for c in range(C):
        idx = ds.class_indices(c)
        if idx.size == 0:
            continue
        target = max(1, int(round(n_max * imbalance_factor ** (-c / (C - 1)))))
        target = min(target, idx.size)
        keep.append(rng.permutation(idx)[:target])
    return _shard(ds, keep)


def partition(ds, part, num_clients, seed):
    """Split a dataset into num_clients shards; the union is sample-exact.

    part is a config.PartitionConfig; seed an int or a SeedSequence.
    """
    if len(ds) == 0:
        raise ValueError("cannot partition an empty dataset")
    if part.mode not in PARTITION_MODES:
        raise ValueError(f"unknown partition mode {part.mode!r}")
    rng = np.random.default_rng(seed)
    if part.mode == PRA:
        return _partition_pra(ds, num_clients, part.alpha, rng)
    if part.mode == PAT:
        return _partition_pat(ds, num_clients, part.categories_per_client, rng)
    # longtail: exponential subsample, then Dirichlet proportions
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    sub_ss, pra_ss = seed.spawn(2)
    tailed = apply_longtail(ds, part.imbalance_factor, sub_ss)
    return _partition_pra(tailed, num_clients, part.alpha, np.random.default_rng(pra_ss))


def train_test_split(ds, train_fraction, seed):
    """Stratified per-category split with an exact train total."""
    n = len(ds)
    rng = np.random.default_rng(seed)
    total_train = int(round(train_fraction * n))
    counts = ds.class_counts()
    if n == 0 or total_train == 0:
        return ds.subset([]), ds.subset(np.arange(n))
    train_counts = _largest_remainder(counts / n, total_train)
    perms = [rng.permutation(ds.class_indices(c)) for c in range(ds.num_classes)]
    train_idx = [idx[:k] for idx, k in zip(perms, train_counts)]
    test_idx = [idx[k:] for idx, k in zip(perms, train_counts)]
    return _shard(ds, train_idx), _shard(ds, test_idx)


def load_csv(path):
    """Read x0,...,x{dim-1},label rows; num_classes is the largest label + 1.

    A malformed header or row, a non-numeric or non-finite value and a
    negative label raise ValueError naming the file and the line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        dim = len(header) - 1
        expected = [f"x{j}" for j in range(dim)] + ["label"]
        if header != expected:
            raise ValueError(
                f"{path}:1 header {header!r} does not match x0..x{dim - 1},label"
            )
        feats, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise ValueError(f"{path}:{line_no} has {len(row)} fields, not {dim + 1}")
            try:
                feats.append([float(v) for v in row[:dim]])
                labels.append(int(row[dim]))
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: {e}") from None
            if not np.isfinite(feats[-1]).all():
                raise ValueError(f"{path}:{line_no}: features must be finite")
            if labels[-1] < 0:
                raise ValueError(f"{path}:{line_no}: label {labels[-1]} is negative")
    X = np.asarray(feats, dtype=float).reshape(len(labels), dim)
    y = np.asarray(labels, dtype=int)
    return Dataset(X, y, int(y.max()) + 1 if y.size else 1)

"""Seeded generator for a Cora-shaped citation graph.

Shape: 2708 nodes, 1433 binary bag-of-words features at about 1.3% density,
exactly 5429 unique undirected edges with no self-loops, and 7 classes with
Cora's class sizes. Words are drawn from a per-class topic mixed with a
shared background, and edges are mostly intra-class with heavy-tailed
endpoint activity, so a GCN separates the classes well above chance.

Everything is vectorised numpy; no step loops over node pairs. The graph is
written in the content/cites text format that ``gdcn.data`` loads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

N_NODES = 2708
N_FEATURES = 1433
N_EDGES = 5429
CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
CLASS_NAMES = ("Neural_Networks", "Probabilistic_Methods", "Genetic_Algorithms",
               "Theory", "Case_Based", "Reinforcement_Learning",
               "Rule_Learning")
WORDS_PER_NODE = 19.4      # mean draws per node; collisions leave ~18 words
TOPIC_WORDS = 100          # vocabulary slice each class favours
# Chance a word comes from the node's class topic. At 0.8 test accuracy
# sits near 0.96 with about 2% spread across seeds, which keeps the
# benchmark's accuracy guards steady; real Cora is harder.
TOPIC_SHARE = 0.8
HOMOPHILY = 0.8            # chance an edge stays inside its class
DENSITY_RANGE = (0.011, 0.015)


@dataclass
class CoraShaped:
    features: np.ndarray   # (n, f) float64, 0/1
    labels: np.ndarray     # (n,) int64, class index
    edges: np.ndarray      # (m, 2) int64, unique undirected pairs, u < v


def _word_cdfs(rng: np.random.Generator) -> np.ndarray:
    """One cumulative word distribution per class: topic plus background."""
    background = 1.0 / np.arange(1, N_FEATURES + 1) ** 0.8
    background = rng.permutation(background / background.sum())
    cdfs = np.empty((len(CLASS_SIZES), N_FEATURES))
    for c in range(len(CLASS_SIZES)):
        topic = np.zeros(N_FEATURES)
        topic[rng.choice(N_FEATURES, TOPIC_WORDS, replace=False)] = 1.0 / TOPIC_WORDS
        cdfs[c] = np.cumsum(TOPIC_SHARE * topic + (1.0 - TOPIC_SHARE) * background)
    cdfs[:, -1] = 1.0
    return cdfs


def _features(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    n = len(labels)
    cdfs = _word_cdfs(rng)
    counts = np.maximum(rng.poisson(WORDS_PER_NODE, size=n), 1)
    width = int(counts.max())
    u = rng.random((n, width))
    words = np.empty((n, width), dtype=np.int64)
    for c in range(len(cdfs)):
        rows = labels == c
        words[rows] = np.searchsorted(cdfs[c], u[rows], side="right")
    used = np.arange(width)[None, :] < counts[:, None]
    features = np.zeros((n, N_FEATURES))
    features[np.nonzero(used)[0], words[used]] = 1.0
    return features


def _pick(rng, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(size), side="right")


def _edges(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """Exactly N_EDGES unique undirected pairs; every node gets one edge."""
    n = len(labels)
    activity = rng.pareto(2.5, size=n) + 1.0
    by_class = [np.flatnonzero(labels == c) for c in range(len(CLASS_SIZES))]
    class_cdf = [np.cumsum(activity[m]) / activity[m].sum() for m in by_class]
    all_cdf = np.cumsum(activity) / activity.sum()

    def partners(src: np.ndarray) -> np.ndarray:
        dst = _pick(rng, all_cdf, len(src))
        inside = rng.random(len(src)) < HOMOPHILY
        for c, members in enumerate(by_class):
            sel = inside & (labels[src] == c)
            dst[sel] = members[_pick(rng, class_cdf[c], int(sel.sum()))]
        return dst

    # First one partner per node, then activity-weighted sources in
    # batches; keep pairs in draw order until N_EDGES unique ones exist.
    src = np.arange(n)
    dst = partners(src)
    while np.any(dst == src):
        again = dst == src
        dst[again] = partners(src[again])
    pairs = np.stack([src, dst], axis=1)
    while True:
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        canon = np.sort(pairs, axis=1)
        keys = canon[:, 0] * n + canon[:, 1]
        _, first = np.unique(keys, return_index=True)
        if len(first) >= N_EDGES:
            return canon[np.sort(first)[:N_EDGES]]
        extra = _pick(rng, all_cdf, 2 * (N_EDGES - len(first)))
        pairs = np.concatenate([pairs, np.stack([extra, partners(extra)], axis=1)])


def generate(seed: int) -> CoraShaped:
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(CLASS_SIZES)), CLASS_SIZES))
    features = _features(rng, labels)
    edges = _edges(rng, labels)
    return CoraShaped(features=features, labels=labels.astype(np.int64),
                      edges=edges.astype(np.int64))


def write_files(graph: CoraShaped, directory: str, seed: int) -> tuple:
    """Write ``cora.content`` and ``cora.cites``; return their paths."""
    os.makedirs(directory, exist_ok=True)
    n = len(graph.labels)
    ids = np.random.default_rng([seed, 1]).choice(10 ** 6, n, replace=False) + 35
    # Each feature row as "\t0\t1..." bytes: digit at odd offsets.
    cells = np.full((n, 2 * N_FEATURES), ord("\t"), dtype=np.uint8)
    cells[:, 1::2] = ord("0") + graph.features.astype(np.uint8)
    content = os.path.join(directory, "cora.content")
    with open(content, "wb") as fh:
        for i in range(n):
            fh.write(b"%d%s\t%s\n" % (ids[i], cells[i].tobytes(),
                                       CLASS_NAMES[graph.labels[i]].encode()))
    cites = os.path.join(directory, "cora.cites")
    with open(cites, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{ids[u]}\t{ids[v]}\n" for u, v in graph.edges))
    return content, cites


def graph_stats(features: np.ndarray, labels: np.ndarray,
                edges: np.ndarray) -> dict:
    n = features.shape[0]
    degree = np.bincount(edges.ravel(), minlength=n)
    canon = np.sort(edges, axis=1)
    return {
        "nodes": int(n),
        "features": int(features.shape[1]),
        "binary": bool(np.all((features == 0.0) | (features == 1.0))),
        "density": float(features.mean()),
        "edges": int(len(edges)),
        "unique_edges": int(len(np.unique(canon[:, 0] * n + canon[:, 1]))),
        "self_loops": int(np.sum(edges[:, 0] == edges[:, 1])),
        "classes": int(len(np.unique(labels))),
        "min_class_size": int(np.bincount(labels).min()),
        "homophily": float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])),
        "isolated": int(np.sum(degree == 0)),
        "max_degree": int(degree.max()),
    }


def stats_problems(stats: dict) -> list:
    """Human-readable list of departures from the Cora shape (empty if none)."""
    want = {"nodes": N_NODES, "features": N_FEATURES, "binary": True,
            "edges": N_EDGES, "unique_edges": N_EDGES, "self_loops": 0,
            "classes": len(CLASS_SIZES), "isolated": 0}
    problems = [f"{k} = {stats[k]}, expected {v}"
                for k, v in want.items() if stats[k] != v]
    lo, hi = DENSITY_RANGE
    if not lo <= stats["density"] <= hi:
        problems.append(f"density {stats['density']:.4f} outside [{lo}, {hi}]")
    if stats["homophily"] < 0.7:
        problems.append(f"homophily {stats['homophily']:.3f} below 0.7")
    if stats["min_class_size"] < 20:
        problems.append("a class has fewer than 20 nodes")
    return problems

"""Golden fits of the tree surrogates, pinned as exact literals, plus
property tests of the fitted tree structure.

Every golden case fits a seeded model on a seeded dataset and compares a
SHA-256 digest of its trees with ``==`` against literals captured from the
reference implementation. The digest covers each tree's node arrays
(children, feature, node sample count, and thresholds and values as
``float.hex``) and the end state of the tree's random stream, so a hot-path
change to ``repro.surrogate.tree`` must reproduce every split, every leaf
value and every draw bit for bit. The optimizer case pins a whole ask/tell
trace, which only holds if the forest predictions are unchanged too. A
deliberate change of the split rule or the random stream re-baselines the
literals explicitly — print the new values with
``PYTHONPATH=src python tests/test_surrogate_golden.py`` and say why in the
change log.

The datasets stress the cases where an exact split choice is delicate:
duplicate objective values (constant-liar fantasies), gridded features
with many tied values, rounded objectives, and objectives whose spread is
tiny next to their magnitude (down to 1e-15 of it), and objectives so
small that their squared deviations are subnormal.
"""

from __future__ import annotations

import hashlib
import pprint

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesopt import Integer, Optimizer, Real
from repro.surrogate.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.surrogate.gbrt import GBRTQuantile
from repro.surrogate.tree import _LEAF, DecisionTreeRegressor


def make_dataset(name: str) -> tuple[np.ndarray, np.ndarray]:
    """One seeded training set per name (n rows, 4 features)."""
    rng = np.random.default_rng(2021)
    n = 45
    if name == "grid":
        X = rng.integers(0, 4, size=(n, 4)).astype(float) * 0.25
    else:
        X = rng.random((n, 4))
    u = rng.random(n)
    smooth = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2] + 0.1 * u
    if name == "smooth":
        y = smooth
    elif name == "liar":
        # A third of the rows carry the incumbent as a constant-liar value.
        y = smooth.copy()
        y[::3] = smooth.min()
    elif name == "grid":
        y = np.round(smooth, 1)
    elif name == "tiny":
        y = 2.4 + 1e-9 * u
    elif name == "offset":
        y = 1e6 + 1e-6 * u
    elif name == "cancel":
        # A spread of 1e-15 relative to the magnitude: the SSE of a split is
        # mostly rounding error, so only an exact tie rule picks the same one.
        y = 1e6 + 1e-9 * u
    elif name == "subnormal":
        # Squared deviations are subnormal, so every SSE is rounded to an
        # absolute unit of 5e-324 that no relative tolerance covers.
        y = 1e-161 * smooth
    else:
        raise KeyError(name)
    return X, y


DATASETS = ("smooth", "liar", "grid", "tiny", "offset", "cancel", "subnormal")

#: tree variants: (min_samples_leaf, max_depth, max_features).
TREE_VARIANTS = {
    "leaf1": (1, None, None),
    "leaf2": (2, None, None),
    "leaf3": (3, None, None),
    "depth3": (1, 3, None),
    "feat2": (1, None, 2),
}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def tree_digest(tree: DecisionTreeRegressor) -> str:
    """Exact digest of one fitted tree and of its random stream's end state."""
    payload = repr(
        (
            list(tree.children_left_),
            list(tree.children_right_),
            list(tree.feature_),
            list(tree.n_node_samples_),
            _hex(tree.threshold_),
            _hex(tree.value_),
            tree._rng.bit_generator.state,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def trees_digest(trees) -> str:
    joined = "".join(tree_digest(tree) for tree in trees)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def fit_case(model: str, dataset: str) -> str:
    X, y = make_dataset(dataset)
    kind, _, variant = model.partition(":")
    if kind in ("best", "random"):
        leaf, depth, features = TREE_VARIANTS[variant]
        tree = DecisionTreeRegressor(
            splitter=kind,
            min_samples_leaf=leaf,
            max_depth=depth,
            max_features=features,
            random_state=7,
        ).fit(X, y)
        return tree_digest(tree)
    probe = np.random.default_rng(3).random((32, 4))
    if kind == "GBRT":
        model = GBRTQuantile(n_estimators=8, random_state=5).fit(X, y)
        trees = [tree for stage in model._models for tree in stage.estimators_]
    else:
        cls = {"ET": ExtraTreesRegressor, "RF": RandomForestRegressor}[kind]
        kwargs = {"max_features": 2} if variant == "feat2" else {}
        model = cls(n_estimators=10, random_state=5, **kwargs).fit(X, y)
        trees = model.estimators_
    mean, std = model.predict(probe, return_std=True)
    return trees_digest(trees) + ":" + hashlib.sha256(
        repr((_hex(mean), _hex(std))).encode()
    ).hexdigest()[:16]


MODELS = tuple(f"{s}:{v}" for s in ("best", "random") for v in TREE_VARIANTS) + (
    "ET",
    "ET:feat2",
    "RF",
    "GBRT",
)
FIT_CASES = tuple(f"{model}@{dataset}" for model in MODELS for dataset in DATASETS)


def optimizer_trace() -> dict:
    """25 ask/tell trials of the paper's ET/LHS/gp_hedge optimizer.

    Points are asked in pairs, so every second fit carries a constant-liar
    fantasy, and the objective is rounded, so the data hold exact ties.
    """
    space = [
        Real(-5.0, 10.0, name="a"),
        Real(0.0, 15.0, name="b"),
        Integer(1, 12, name="c"),
    ]
    opt = Optimizer(
        space,
        base_estimator="ET",
        initial_point_generator="lhs",
        acq_func="gp_hedge",
        n_initial_points=8,
        acq_n_candidates=500,
        random_state=2021,
    )
    trials = []
    while len(trials) < 25:
        batch = [opt.ask(), opt.ask()]
        for x in batch[: 25 - len(trials)]:
            a, b, c = x
            value = round((b - 0.13 * a * a + 1.6 * a - 6.0) ** 2 + 10.0 * np.cos(a) + c, 2)
            opt.tell(x, value)
            trials.append((float(a).hex(), float(b).hex(), int(c), float(value).hex()))
    result = opt.result()
    return {
        "trials": hashlib.sha256(repr(trials).encode()).hexdigest()[:16],
        "fits": opt.n_fits,
        "best": float(result.fun).hex(),
    }


GOLDEN: dict[str, str] = {'best:leaf1@smooth': 'abab944f74c8e6cc',
 'best:leaf1@liar': '1b764927cefac2a7',
 'best:leaf1@grid': 'aee30a3c5651a890',
 'best:leaf1@tiny': '0423fe06fdd512f3',
 'best:leaf1@offset': '04337531ee799de1',
 'best:leaf1@cancel': '9fad8066e3ebdb8f',
 'best:leaf1@subnormal': '06147f3f511aa7da',
 'best:leaf2@smooth': 'c3bb72d8e2f3dc5d',
 'best:leaf2@liar': '86ac193edd3bd28d',
 'best:leaf2@grid': 'f4271f5acb838eb7',
 'best:leaf2@tiny': '43759f4bedbfb521',
 'best:leaf2@offset': '00744e177836deea',
 'best:leaf2@cancel': 'd1f96cd1d2dda817',
 'best:leaf2@subnormal': 'c8319476ec7a5af5',
 'best:leaf3@smooth': 'c0ee89fd2ccb3e75',
 'best:leaf3@liar': '5131fe48f69a49ad',
 'best:leaf3@grid': '9c9340be97b71846',
 'best:leaf3@tiny': '18a863bdaba89f6e',
 'best:leaf3@offset': 'b6993ba63fa7ac89',
 'best:leaf3@cancel': '0daecefa8e5fef23',
 'best:leaf3@subnormal': '8609925989c08a24',
 'best:depth3@smooth': '1b0391e2ad0843ea',
 'best:depth3@liar': 'c3c7bda61be210f5',
 'best:depth3@grid': '728d1d05fc1b31a4',
 'best:depth3@tiny': '9f279fa86583c643',
 'best:depth3@offset': '87704b8309c1fd40',
 'best:depth3@cancel': 'a385aa775c20ee1b',
 'best:depth3@subnormal': 'e133fb3f582e644c',
 'best:feat2@smooth': '2e62f7c771635dc8',
 'best:feat2@liar': '4cf7bc348fb652f0',
 'best:feat2@grid': '4cd3e40db36658c6',
 'best:feat2@tiny': '908f2984a56af394',
 'best:feat2@offset': 'fe375f206c832997',
 'best:feat2@cancel': '2bd371648c5eee60',
 'best:feat2@subnormal': 'c72a5ee3ed8481c7',
 'random:leaf1@smooth': '0b0214f5ad773d96',
 'random:leaf1@liar': 'f3dc48a799a5c9a3',
 'random:leaf1@grid': '80fc3aba7e17b8b0',
 'random:leaf1@tiny': 'c3b6a7f4f0c1d474',
 'random:leaf1@offset': '6903bf3c15275d19',
 'random:leaf1@cancel': '009c8e83f6b24cc1',
 'random:leaf1@subnormal': '1b2f6b5aa5e90b8c',
 'random:leaf2@smooth': '62786d10a2352b71',
 'random:leaf2@liar': '2d5e8c131bf57858',
 'random:leaf2@grid': 'b3396d6629bab959',
 'random:leaf2@tiny': 'b1d7a8d3686ae38a',
 'random:leaf2@offset': '7887d2157e2c3132',
 'random:leaf2@cancel': 'a4f65a521facc1c1',
 'random:leaf2@subnormal': '7bce533d7a8e512e',
 'random:leaf3@smooth': '2863d81a7d0420fd',
 'random:leaf3@liar': '9b34e2a8e28bb608',
 'random:leaf3@grid': '62d991632890f405',
 'random:leaf3@tiny': '365bccc4ae7ccf6e',
 'random:leaf3@offset': '4bcd4bbcd218d310',
 'random:leaf3@cancel': '9c38f82dc83aa376',
 'random:leaf3@subnormal': 'ba20f2d4d3faf4e7',
 'random:depth3@smooth': '2d806655d1adf1a3',
 'random:depth3@liar': '97f4891674a27d05',
 'random:depth3@grid': 'f56c633244ae1138',
 'random:depth3@tiny': '85a3507f337e47ef',
 'random:depth3@offset': 'dc3332b93d763d92',
 'random:depth3@cancel': '6964b927d59f3a40',
 'random:depth3@subnormal': '1f5bf5aec557cd8e',
 'random:feat2@smooth': '50e189edab5a8ef5',
 'random:feat2@liar': '99a81a015a9ad88d',
 'random:feat2@grid': '33f71eb9051fd931',
 'random:feat2@tiny': '37ffd35f36c62509',
 'random:feat2@offset': 'f1fb2be1cbf983e8',
 'random:feat2@cancel': '75e13ce2b9b8ee99',
 'random:feat2@subnormal': '35602ebd90a24064',
 'ET@smooth': 'e729f04e37498119:15456c917dab741b',
 'ET@liar': '7ad674b8066dd547:53092db12ee934b4',
 'ET@grid': 'dc75ec135491bd1b:79f04e35a67ccd3d',
 'ET@tiny': 'fd2624c76868f859:b409ddc2fc947fdf',
 'ET@offset': '6579e8f4add6da23:c0fe30fa6b52fc36',
 'ET@cancel': '14db7612d5b1ddf1:a7fe5aa4af0d2c63',
 'ET@subnormal': '0fd15bfa1e3f814f:a3b9121576ea40b9',
 'ET:feat2@smooth': 'ef61ea19f9f15289:58b240cadd40e3af',
 'ET:feat2@liar': 'a7d4c276c6142f66:5abb301a5f160026',
 'ET:feat2@grid': 'a56264986e8bd25e:afd27c4c66b43381',
 'ET:feat2@tiny': '8e1f83d324c4ada8:d001f724f7a2403a',
 'ET:feat2@offset': '041b9f5fbad7d002:0ff4c7fba7d5d0d1',
 'ET:feat2@cancel': 'c2ce35b31ea1061b:9a359fa2630e6cbd',
 'ET:feat2@subnormal': 'eb4cebce090830f8:a248df4b840d9571',
 'RF@smooth': '7384a28a2c70566f:175fa1f9f1ef5673',
 'RF@liar': '8bc789fd0695deab:aab51cbc85dbe833',
 'RF@grid': '26e4dba111c9e26a:4f15f081b05c7664',
 'RF@tiny': '8d5a61fe5102b96c:153c11941ee7767a',
 'RF@offset': '044d5505ac17479a:173a2a4a344b234c',
 'RF@cancel': 'd4a4bd6ee63381b7:54db681e301fbf2d',
 'RF@subnormal': 'c86355fb59f436e8:b633689575d29478',
 'GBRT@smooth': '1c9db6c7391182d0:1b6b242cf4001533',
 'GBRT@liar': '9f4cf9ece844840b:36a7669436eaa473',
 'GBRT@grid': '0a55f4f16bc04ba9:a45f9f59ab166e4f',
 'GBRT@tiny': 'd14d0620f733613f:f78905194cfea66a',
 'GBRT@offset': '1e188dd23642f927:35be27218a913c90',
 'GBRT@cancel': 'fbb882285b6392e6:e19130621d275004',
 'GBRT@subnormal': '4fc08cd9826f5dee:2259e2edeff281e5'}

GOLDEN_TRACE: dict = {'trials': 'a3b69f8cf8e9c07a', 'fits': 18, 'best': '-0x1.b0a3d70a3d70ap+1'}


@pytest.mark.parametrize("case", FIT_CASES)
def test_fit_matches_golden(case):
    model, _, dataset = case.partition("@")
    assert fit_case(model, dataset) == GOLDEN[case]


def test_optimizer_trace_matches_golden():
    assert optimizer_trace() == GOLDEN_TRACE


# -- structural properties ---------------------------------------------------------


def node_samples(tree: DecisionTreeRegressor, X: np.ndarray) -> dict[int, np.ndarray]:
    """Training-row indices reaching each node, routed as ``predict`` does."""
    reach = {0: np.arange(len(X))}
    for node in range(tree.node_count):
        left = tree.children_left_[node]
        if left == _LEAF:
            continue
        rows = reach[node]
        go_left = X[rows, tree.feature_[node]] <= tree.threshold_[node]
        reach[left] = rows[go_left]
        reach[tree.children_right_[node]] = rows[~go_left]
    return reach


@st.composite
def training_sets(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    # Features on a 1/8 grid: many ties, and gaps wide enough that a random
    # threshold of a non-constant feature lands below its top value.
    cells = draw(st.lists(st.integers(0, 8), min_size=n * d, max_size=n * d))
    X = np.asarray(cells, dtype=float).reshape(n, d) / 8.0
    scale = draw(st.sampled_from([1.0, 1e-9]))
    offset = draw(st.sampled_from([0.0, 2.4, 1e6]))
    levels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    y = offset + scale * np.asarray(levels, dtype=float)
    return X, y


@settings(max_examples=150, deadline=None)
@given(
    data=training_sets(),
    splitter=st.sampled_from(["best", "random"]),
    max_depth=st.sampled_from([None, 2, 4]),
    min_samples_split=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_tree_invariants(data, splitter, max_depth, min_samples_split, seed):
    X, y = data
    tree = DecisionTreeRegressor(
        splitter=splitter,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        random_state=seed,
    ).fit(X, y)
    reach = node_samples(tree, X)
    depth = {0: 0}
    for node in range(tree.node_count):
        rows = reach[node]
        assert tree.n_node_samples_[node] == len(rows)
        left, right = tree.children_left_[node], tree.children_right_[node]
        if left != _LEAF:
            # The children partition the parent's samples ...
            assert len(reach[left]) >= 1 and len(reach[right]) >= 1
            assert sorted(np.concatenate([reach[left], reach[right]])) == sorted(rows)
            # ... at a threshold inside the parent's range of that feature.
            x = X[rows, tree.feature_[node]]
            assert x.min() <= tree.threshold_[node] <= x.max()
            depth[left] = depth[right] = depth[node] + 1
            continue
        # Every leaf is pure or cannot be split further.
        pure = np.ptp(y[rows]) == 0.0
        constant = all(np.ptp(X[rows, j]) == 0.0 for j in range(X.shape[1]))
        too_small = len(rows) < min_samples_split
        too_deep = max_depth is not None and depth[node] >= max_depth
        assert pure or constant or too_small or too_deep
        # Its value is numpy's mean of the samples it holds, bit for bit.
        assert tree.value_[node] == y[rows].mean()


if __name__ == "__main__":
    current = {case: fit_case(*case.split("@")) for case in FIT_CASES}
    print("GOLDEN: dict[str, str] = " + pprint.pformat(current, width=96, sort_dicts=False))
    print("\nGOLDEN_TRACE: dict = " + pprint.pformat(optimizer_trace(), sort_dicts=False))

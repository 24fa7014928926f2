"""Contract of the `bifid` command on bad input: exit code 2 and an `error:` line.

Hypothesis changes one thing in a valid config, artifact or CSV.  Whatever it
changes, `main` returns 2, prints `error:` on stderr and raises nothing; a
refused config is refused before any data is generated or any network trains.
The expected JSON kind of every key is written out here, apart from the
dataclasses that declare the schema, so that it checks them.
"""

import json
import math
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bifid import harness
from bifid.cli import main
from bifid.datasets import write_csv



def examples(n: int) -> settings:
    # the fixtures these tests take are safe to share between examples
    return settings(max_examples=n, suppress_health_check=[HealthCheck.function_scoped_fixture])


_TEACHER_RBF = {"kind": "rbf", "amplitude": 1.0, "length": 1.0,
                "amplitude_bounds": [0.1, 10.0], "length_bounds": [0.1, 10.0]}
BASE = {
    "method": "bftl1", "master_seed": 3, "n_l": 12, "n_h": 5, "n_v": 5,
    "network": {"hidden_widths": [3, 3], "activations": ["elu", "relu"], "skips": [[1, 2]]},
    "head": {"hidden_widths": [2], "activations": ["elu"], "skips": []},
    "lf_eta": 1e-3, "hf_eta": 1e-4, "lf_steps": 2, "hf_steps": 2, "loss_stride": 1,
    "n_adapt_layers": 1, "beta": 0.5,
    "teacher_kernel": {"kind": "sum", "parts": [_TEACHER_RBF,
                                                {"kind": "white_noise", "amplitude": 0.01}]},
    "gp_kernel": {"kind": "matern", "amplitude": 1.0, "length": 1.0, "nu": 2.5},
    "gp_noise_bounds": [1e-10, 1e-4],
    "ck_kernel_l": {"kind": "rational_quadratic", "amplitude": 1.0, "shape": 1.0, "length": 1.0},
    "ck_kernel_corr": None,
    "ck_noise_bounds": [1e-10, 1e-4], "rho_bounds": [-5, 5],
    "standardize_nn": True, "standardize_gp_inputs": False,
    "data": {"source": "beam", "lf_path": None, "hf_path": None, "val_path": None,
             "pool_size": 30},
    "replication": {"mode": "single", "n": 1, "nh_values": [4], "n_seeds": 1},
    "compare_methods": ["bftl1"], "save_models": False,
}

# JSON kind of each config key; "?" marks keys that also take null
KINDS = {
    "method": "str", "master_seed": "int", "n_l": "int", "n_h": "int", "n_v": "int",
    "network": "obj", "head": "obj", "hidden_widths": "list", "activations": "list",
    "skips": "list", "lf_eta": "num?", "hf_eta": "num?", "lf_steps": "int", "hf_steps": "int",
    "loss_stride": "int", "n_adapt_layers": "int", "beta": "num?", "teacher_kernel": "obj",
    "gp_kernel": "obj?", "ck_kernel_l": "obj?", "ck_kernel_corr": "obj?",
    "gp_noise_bounds": "list?", "ck_noise_bounds": "list?", "rho_bounds": "list?",
    "standardize_nn": "bool", "standardize_gp_inputs": "bool", "data": "obj", "source": "str",
    "lf_path": "str?", "hf_path": "str?", "val_path": "str?", "pool_size": "int?",
    "replication": "obj", "mode": "str", "n": "int", "nh_values": "list", "n_seeds": "int",
    "compare_methods": "list", "save_models": "bool",
    "kind": "str", "parts": "list", "amplitude": "num", "length": "num", "shape": "num",
    "nu": "num", "amplitude_bounds": "list?", "length_bounds": "list?", "shape_bounds": "list?",
}
# JSON kind of the entries of each list-valued key
ENTRY_KINDS = {"hidden_widths": "int", "activations": "str", "skips": "list",
               "nh_values": "int", "compare_methods": "str", "parts": "obj"}

NAMED_VALUES = {  # keys whose strings name one of a fixed set of values
    ("method",): harness.METHODS,
    ("compare_methods", 0): harness.METHODS,
    ("data", "source"): ("beam", "csv"),
    ("replication", "mode"): ("single", "init_replicates", "dataset_replicates", "nh_sweep"),
    ("network", "activations", 0): ("relu", "elu", "identity"),
    ("head", "activations", 0): ("relu", "elu", "identity"),
    ("teacher_kernel", "kind"): ("rbf", "rational_quadratic", "matern", "white_noise", "sum"),
    ("gp_kernel", "kind"): ("rbf", "rational_quadratic", "matern", "white_noise", "sum"),
}
OUT_OF_RANGE = [  # (path, strategy for values the schema must refuse)
    (("master_seed",), st.integers(max_value=-1)),
    (("n_l",), st.integers(max_value=0)),
    (("n_h",), st.integers(max_value=0)),
    (("n_v",), st.integers(max_value=0)),
    (("lf_eta",), st.floats(max_value=0.0)),
    (("hf_eta",), st.floats(max_value=0.0)),
    (("lf_steps",), st.integers(max_value=-1)),
    (("hf_steps",), st.integers(max_value=-1)),
    (("loss_stride",), st.integers(max_value=0)),
    (("n_adapt_layers",), st.integers(max_value=0) | st.integers(min_value=3)),
    (("network", "hidden_widths", 0), st.integers(max_value=0) | st.integers(min_value=51)),
    (("network", "skips", 0, 0), st.integers(min_value=2) | st.integers(max_value=0)),
    (("head", "hidden_widths", 0), st.integers(max_value=0)),
    (("gp_noise_bounds", 0), st.floats(max_value=-1e-12)),
    (("ck_noise_bounds", 1), st.floats(max_value=-1e-12)),
    (("data", "pool_size"), st.integers(max_value=0)),
    (("replication", "n"), st.integers(max_value=0)),
    (("replication", "nh_values", 0), st.integers(max_value=0)),
    (("replication", "n_seeds"), st.integers(max_value=0)),
    (("gp_kernel", "amplitude"), st.floats(max_value=0.0)),
    (("gp_kernel", "nu"), st.floats().filter(lambda v: v not in (0.5, 1.5, 2.5))),
    (("ck_kernel_l", "shape"), st.floats(max_value=0.0)),
    (("teacher_kernel", "parts", 0, "length"), st.floats(min_value=10.5)),
]
BOUNDS_PATHS = [("gp_noise_bounds",), ("ck_noise_bounds",), ("rho_bounds",),
                ("teacher_kernel", "parts", 0, "amplitude_bounds"),
                ("teacher_kernel", "parts", 0, "length_bounds")]
WRONG_TYPED = ["x", 1.5, True, None, [], {}]


def json_kind(value) -> str:
    for kind, types in (("null", type(None)), ("bool", bool), ("int", int), ("num", float),
                        ("str", str), ("list", list), ("obj", dict)):
        if isinstance(value, types):
            return kind
    raise TypeError(value)


def accepted_kinds(declared: str) -> set:
    kind = declared.rstrip("?")
    kinds = {kind, "int"} if kind == "num" else {kind}
    return kinds | {"null"} if declared.endswith("?") else kinds


def config_kind(path) -> str:
    if isinstance(path[-1], str):
        return KINDS[path[-1]]
    if isinstance(path[-2], int):
        return "int"  # an entry of a skip pair
    return ENTRY_KINDS.get(path[-2], "num")  # bounds entries are numbers


def all_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from all_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def deleted(doc, path):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return doc


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


CONFIG_PATHS = list(all_paths(BASE))
NUMERIC_PATHS = [p for p in CONFIG_PATHS if config_kind(p).rstrip("?") in ("int", "num")]
OBJECT_PATHS = [()] + [p for p in CONFIG_PATHS if isinstance(value_at(BASE, p), dict)]


@st.composite
def bad_configs(draw):
    """A (config, extra CLI flags) pair with one invalid change to BASE."""
    change = draw(st.sampled_from(["unknown key", "wrong type", "out of range", "non-finite",
                                   "reversed bounds", "unknown name", "seed flag",
                                   "method flag"]))
    if change == "unknown key":
        path = draw(st.sampled_from(OBJECT_PATHS))
        name = draw(st.text(min_size=1).filter(lambda s: s not in KINDS))
        return replaced(BASE, path + (name,), 1), []
    if change == "wrong type":
        path = draw(st.sampled_from(CONFIG_PATHS))
        ok = accepted_kinds(config_kind(path))
        value = draw(st.sampled_from([v for v in WRONG_TYPED if json_kind(v) not in ok]))
        return replaced(BASE, path, value), []
    if change == "out of range":
        path, values = draw(st.sampled_from(OUT_OF_RANGE))
        return replaced(BASE, path, draw(values)), []
    if change == "non-finite":
        path = draw(st.sampled_from(NUMERIC_PATHS))
        values = [math.nan, math.inf, -math.inf]
        if config_kind(path).startswith("num"):
            values += [10**400, -10**400]  # integer literals beyond the float range
        return replaced(BASE, path, draw(st.sampled_from(values))), []
    if change == "reversed bounds":
        lo = draw(st.floats(min_value=1e-6, max_value=1e3))
        hi = draw(st.floats(min_value=1e-6, max_value=1e3).filter(lambda v: v > lo))
        return replaced(BASE, draw(st.sampled_from(BOUNDS_PATHS)), [hi, lo]), []
    if change == "unknown name":
        path, names = draw(st.sampled_from(sorted(NAMED_VALUES.items())))
        return replaced(BASE, path, draw(st.text().filter(lambda s: s not in names))), []
    if change == "seed flag":
        return BASE, [f"--seed={draw(st.integers(max_value=-1))}"]
    method = draw(st.text().filter(lambda s: s not in harness.METHODS))
    return BASE, [f"--method={method}"]


def refused(capsys, argv) -> None:
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "Traceback" not in err, (argv, code, err)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command gets as far as making data."""
    def started(*args, **kwargs):
        raise AssertionError("a refused config reached data generation")
    monkeypatch.setattr(harness, "make_problem", started)
    monkeypatch.setattr(harness, "make_pool", started)


def test_base_config_is_valid(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    for cmd in ("train", "replicate"):
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / cmd)]) == 0


@examples(120)
@given(bad_configs())
def test_bad_configs_exit_2_before_any_work(tmp_path, capsys, no_work, case):
    config, flags = case
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for cmd in ("train", "replicate"):
        refused(capsys, [cmd, "--config", str(path), "--out", str(tmp_path / "out"), *flags])


# ---------------------------------------------------------------------------
# artifacts and CSVs

_SMALL = {"master_seed": 2, "n_l": 12, "n_h": 5, "n_v": 6, "lf_steps": 3, "hf_steps": 3,
          "loss_stride": 1, "standardize_gp_inputs": True,
          "network": {"hidden_widths": [3, 3], "activations": ["elu", "elu"]},
          "head": {"hidden_widths": [2], "activations": ["elu"]}}


def _pinned_rbf(amplitude, length):
    return {"kind": "rbf", "amplitude": amplitude, "length": length,
            "amplitude_bounds": [amplitude, amplitude], "length_bounds": [length, length]}


_METHODS_BY_KIND = {
    "network": {"method": "standard_hf"},
    "stacked": {"method": "bftl2"},
    "gp": {"method": "gp_only", "gp_kernel": _pinned_rbf(1.0, 2.0),
           "gp_noise_bounds": [1e-6, 1e-6]},
    "cokriging": {"method": "cokriging", "ck_kernel_l": _pinned_rbf(1.0, 2.0),
                  "ck_kernel_corr": _pinned_rbf(0.1, 2.0), "rho_bounds": [0.9, 0.9],
                  "ck_noise_bounds": [1e-6, 1e-6]},
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One artifact of each kind, a matching 4-column CSV, and a scratch directory."""
    root = tmp_path_factory.mktemp("contract")
    artifacts = {}
    for kind, overrides in _METHODS_BY_KIND.items():
        cfg = harness.config_from_dict({**_SMALL, **overrides})
        artifacts[kind] = harness.run_single(cfg).artifact
        assert artifacts[kind]["kind"] == kind
    problem = harness.make_problem(harness.config_from_dict({**_SMALL, "method": "gp_only"}))
    write_csv(problem.data_v, root / "data.csv")
    return artifacts, root


def evaluate(root, artifact, data) -> list[str]:
    model = root / "model.json"
    harness.save_artifact(model, artifact)
    return ["evaluate", "--model", str(model), "--data", str(data)]


def test_saved_artifacts_evaluate(saved, capsys):
    artifacts, root = saved
    for artifact in artifacts.values():
        assert main(evaluate(root, artifact, root / "data.csv")) == 0


def _optional(path) -> bool:
    # a kernel's bounds are optional: they only steer a search, never a prediction
    return isinstance(path[-1], str) and path[-1].endswith("_bounds")


@st.composite
def broken_artifacts(draw, artifacts):
    kind = draw(st.sampled_from(sorted(artifacts)))
    artifact = artifacts[kind]
    # every key, and the first entry of every list, at any depth
    paths = [p for p in all_paths(artifact) if all(isinstance(k, str) or k == 0 for k in p)]
    if draw(st.booleans()):
        path = draw(st.sampled_from([p for p in paths
                                     if isinstance(p[-1], str) and not _optional(p)]))
        return deleted(artifact, path)
    path = draw(st.sampled_from(paths))
    original = json_kind(value_at(artifact, path))
    ok = {"int", "num"} if original == "num" else {original}
    return replaced(artifact, path,
                    draw(st.sampled_from([v for v in WRONG_TYPED if json_kind(v) not in ok])))


@examples(80)
@given(data=st.data())
def test_broken_artifacts_exit_2(saved, capsys, data):
    artifacts, root = saved
    artifact = data.draw(broken_artifacts(artifacts))
    refused(capsys, evaluate(root, artifact, root / "data.csv"))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


_CELLS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_WORDS = st.text(alphabet=string.ascii_letters, min_size=1).filter(lambda s: not _is_number(s))


@st.composite
def bad_csvs(draw):
    """The text of a CSV file that no 4-input model can score, or None for a missing file."""
    change = draw(st.sampled_from(["ragged", "non-numeric", "wrong width", "zero truth",
                                   "missing"]))
    if change == "missing":
        return None
    width = 4 if change != "wrong width" else draw(st.integers(1, 8).filter(lambda w: w != 4))
    n_rows = draw(st.integers(1, 4))
    rows = [[repr(draw(_CELLS)) for _ in range(width + 1)] for _ in range(n_rows)]
    i = draw(st.integers(0, n_rows - 1))
    if change == "ragged":
        if draw(st.booleans()):
            rows[i].pop()
        else:
            rows[i].append(repr(draw(_CELLS)))
    if change == "non-numeric":
        rows[i][draw(st.integers(0, width))] = draw(_WORDS)
    if change == "zero truth":  # the normalized RMSE divides by the truth's norm
        for row in rows:
            row[-1] = "0"
    header = ",".join([f"x{j + 1}" for j in range(width)] + ["y"])
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


@examples(60)
@given(data=st.data())
def test_bad_csvs_exit_2(saved, capsys, data):
    artifacts, root = saved
    artifact = artifacts[data.draw(st.sampled_from(sorted(artifacts)))]
    text = data.draw(bad_csvs())
    csv = root / "bad.csv"
    csv.unlink(missing_ok=True)
    if text is not None:
        csv.write_text(text, encoding="utf-8")
    refused(capsys, evaluate(root, artifact, csv))

"""The package ships one differentiation mechanism: array forward and
backward pairs, with fine-tuning's two-node tape over them. The general
tape lives in tests/tape.py as a test oracle; this guards against it
coming back into the package."""

import ast
from pathlib import Path

import vlltr
from vlltr.tensor import Tensor

TAPE_OPS = {"as_tensor", "matmul", "softmax", "layer_norm",
            "cosine_sim_matrix", "cross_entropy"}

OPERATORS = {
    # arithmetic
    "__add__", "__radd__", "__iadd__", "__sub__", "__rsub__", "__isub__",
    "__mul__", "__rmul__", "__imul__", "__truediv__", "__rtruediv__",
    "__itruediv__", "__floordiv__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__", "__matmul__", "__rmatmul__", "relu",
    # reductions
    "sum", "mean", "max", "min", "prod",
    # shape
    "reshape", "transpose", "T", "ndim", "flatten", "squeeze",
    # indexing
    "__getitem__", "__setitem__",
}


def test_tensor_defines_no_operator():
    assert sorted(name for name in OPERATORS if hasattr(Tensor, name)) == []


def bound_names(path):
    """(line, name) of each name that module `path` defines or imports,
    both bare and qualified by the module that defines it."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            module, names = path.stem, [node.name]
        elif isinstance(node, ast.Assign):
            module = path.stem
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            yield node.lineno, name
            yield node.lineno, f"{module}.{name}"


def test_no_module_defines_or_imports_a_tape_op():
    forbidden = TAPE_OPS | {"gradcheck.gradcheck"}
    found = [f"{path.name}:{line} {name}"
             for path in sorted(Path(vlltr.__file__).parent.glob("*.py"))
             for line, name in bound_names(path) if name in forbidden]
    assert found == []

"""What the benchmark under ``bench/`` uses of the program.

``bench/tracing.py`` is read from its file, and nothing is written under
``bench/``.  A renamed module, class or method then fails here instead of
in a benchmark run.  Its ``COUNT_ONLY`` set is not checked: some of its
names are stale.
"""

import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    """Run the file's source in a fresh module; no bytecode is written."""
    path = ROOT / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("layer", TRACING.LAYERS)
def test_every_layer_imports_from_src(layer):
    module = importlib.import_module(f"fig8.{layer}")
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "fig8")


@pytest.mark.parametrize("target", sorted(TRACING.KERNELS), ids=".".join)
def test_every_kernel_target_resolves(target):
    layer, cls_name, method = target
    cls = getattr(importlib.import_module(f"fig8.{layer}"), cls_name)
    assert callable(getattr(cls, method))


def test_mat2_product_has_the_fields_the_kernel_counter_reads():
    """bench/tracing.py counts entry bits from product.a11 .. product.a22."""
    sl2 = importlib.import_module("fig8.sl2")
    product = sl2.SANOV_A * sl2.SANOV_B
    assert (product.a11, product.a12, product.a21, product.a22) == (5, 2, 2, 1)


def test_the_checks_find_word_and_dehn_oracle():
    """bench/checks.py decides a surface-certify verdict with
    genus2.dehn_oracle(words.Word(letters, "abcd"))."""
    words = importlib.import_module("fig8.words")
    genus2 = importlib.import_module("fig8.genus2")
    assert genus2.dehn_oracle(words.Word(genus2.RELATOR, "abcd")) == "trivial"
    assert genus2.dehn_oracle(words.Word("ab", "abcd")) == "nontrivial"

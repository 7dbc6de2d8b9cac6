"""A standing mutation gate for the numeric kernels.

Each mutant is a kernel's source with one textual edit, compiled in the
kernel's module namespace.  Its code object replaces the kernel's for the
test, so every module that imported the kernel runs the mutant.  The named
referees then run in process, and each must fail: an assertion of its own
or a ``pytest.fail`` (a ``pytest.raises`` that saw nothing), not a crash of
the mutant.
"""

import __future__
import inspect

import pytest

from morphlie import algebras

from . import test_algebras, test_groups, test_shlie


def _mutant_code(func, old: str, new: str):
    """The code object of ``func`` with ``old``, which occurs once, replaced by ``new``."""
    lines, start = inspect.getsourcelines(func)
    source = "".join(lines)
    assert source.count(old) == 1 and old != new, f"{func.__name__}: {old!r}"
    namespace = dict(vars(inspect.getmodule(func)))
    # Leading newlines keep the mutant's line numbers those of the file.
    code = compile("\n" * (start - 1) + source.replace(old, new), inspect.getsourcefile(func),
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[func.__name__].__code__


_NON_SKELETAL = test_shlie.TestNonSkeletalMorphism()
_GROUP_TRIPLES = test_groups.TestGroupModuleTriple()

# (name, kernel, text, its replacement, the referees that must fail)
MUTANTS = [
    ("homomorphism_defect: the sign of extra", algebras.homomorphism_defect,
     "diff.get(a, 0) + fx * y", "diff.get(a, 0) - fx * y",
     [_NON_SKELETAL.test_conditions_hold_only_through_phi2]),
    ("homomorphism_defect: h.den dropped", algebras.homomorphism_defect,
     "fp, fx = g.den * f, h.den * e * f,", "fp, fx = g.den * f, e * f,",
     [test_algebras.test_integer_kernels_agree_with_dense_oracles_on_rational_constants]),
    ("homomorphism_defect: e dropped", algebras.homomorphism_defect,
     "fp, fx = g.den * f, h.den * e * f,", "fp, fx = g.den * f, h.den * f,",
     [test_algebras.test_integer_kernels_agree_with_dense_oracles_on_rational_constants,
      _NON_SKELETAL.test_conditions_hold_only_through_phi2]),
    ("intertwining_defect: the sign of extra", algebras.intertwining_defect,
     "bi * psi + xi", "bi * psi - xi",
     [_NON_SKELETAL.test_conditions_hold_only_through_phi2,
      test_shlie.TestCheckShMorphism().test_conditions_iii_and_iv_on_small_abelian_complexes]),
    ("intertwining_defect: the last generator skipped", algebras.intertwining_defect,
     "if left != right:", "if left != right and i < len(a) - 1:",
     [test_algebras.test_intertwining_fails_at_the_last_basis_vector,
      _GROUP_TRIPLES.test_non_intertwining_psi_rejected,
      _GROUP_TRIPLES.test_a_moved_psi_fails_at_the_first_element_that_does_not_intertwine]),
]


@pytest.mark.parametrize("kernel, old, new, referees", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(monkeypatch, kernel, old, new, referees):
    monkeypatch.setattr(kernel, "__code__", _mutant_code(kernel, old, new))
    for referee in referees:
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            referee()

"""A standing mutation gate for the numeric kernels.

Each mutant is a kernel's source with one textual edit, compiled in the
kernel's module namespace.  Its code object replaces the kernel's for the
test, so every module that imported the kernel runs the mutant.  The named
referees then run in process, and each must fail: an assertion of its own
or a ``pytest.fail`` (a ``pytest.raises`` that saw nothing), not a crash of
the mutant.
"""

import __future__
import contextlib
import inspect
import io
import tempfile
import textwrap
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from morphlie import algebras, cecomplex, cohomology, groups, linalg
from morphlie.fixtures import heis, sl2

from . import (
    test_algebras,
    test_cecomplex,
    test_cli,
    test_cohomology,
    test_extensions,
    test_groups,
    test_laws,
    test_linalg,
    test_shlie,
)
from .oracles import o_betti_heis, o_betti_sl2_power


def _mutant_code(func, old: str, new: str):
    """The code object of ``func`` (a function or a method) with ``old``, which occurs once,
    replaced by ``new``."""
    lines, start = inspect.getsourcelines(func)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1 and old != new, f"{func.__name__}: {old!r}"
    namespace = dict(vars(inspect.getmodule(func)))
    # Leading newlines keep the mutant's line numbers those of the file.
    code = compile("\n" * (start - 1) + source.replace(old, new), inspect.getsourcefile(func),
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[func.__name__].__code__


class _Capture:
    """capsys outside pytest: what was printed since the last read."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        read = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return read


def _cli_referee(test, **params):
    """A ``test_cli`` test as a referee: the fixtures it names (capsys, monkeypatch,
    request and ``test_cli``'s documents) made outside pytest, and ``params`` for the rest."""
    def referee():
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            capture = _Capture()

            def document(name):
                return getattr(test_cli, name).__wrapped__(Path(tmp))

            fixtures = {"capsys": capture, "monkeypatch": mp,
                        "request": SimpleNamespace(getfixturevalue=document)}
            args = {name: params[name] if name in params else
                    fixtures[name] if name in fixtures else document(name)
                    for name in inspect.signature(test).parameters}
            with contextlib.redirect_stdout(capture.out), contextlib.redirect_stderr(capture.err):
                test(**args)
    return referee


def _table_calls(doc: str, simple: bool):
    """The ``TestTableCalls`` case on ``doc``, with or without --simple, as a referee."""
    test = test_cli.TestTableCalls().test_each_differential_built_and_ranked_once
    names, rows = test.pytestmark[0].args
    row = next(r for r in rows if r[0] == doc and ("--simple" in r[3]) == simple)
    return _cli_referee(test, **dict(zip(names.split(", "), row)))


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
    ("cone: A_1's rank in place of its dimension", linalg.cone,
     "else chain.source[0].dim(n)", "else chain.source[0].rank(n)",
     [test_cohomology.test_the_invertible_psi_route_agrees_with_the_cone_on_the_catalog]),
    ("cone: the graph's rank d_0 read as dim A_1^0 plus the summands'", linalg.cone,
     "0 if n == 0 and graph else ", "",
     [test_cohomology.test_the_invertible_psi_route_agrees_with_the_cone_on_the_catalog]),
    ("cone: the sign of the f blocks", linalg.cone,
     "parts.append((off, 1, *block", "parts.append((off, -1, *block",
     [test_cecomplex.test_morphism_matrix_equals_the_block_assembly]),
    ("cone: the sign of -d_B", linalg.cone,
     "(off, -1, *chain.target", "(off, 1, *chain.target",
     [test_cecomplex.test_morphism_matrix_equals_the_block_assembly,
      test_cohomology.test_complex_verifies_square_zero]),
    ("cone: the graph of -psi in the product", linalg.cone,
     "chain.psi.cols), chain.psi]", "chain.psi.cols), -chain.psi]",
     [test_cecomplex.test_morphism_matrix_equals_the_block_assembly,
      test_cecomplex.test_morphism_matrix_computes_the_graph_eta_block]),
    ("group_differential: the first face without rho(g_1)", groups.group_differential,
     "acts[tup[0]][a]", "acts[group.identity][a]",
     [test_laws.test_averaging_is_a_contracting_homotopy_of_the_bar_differential]),
    ("group_differential: the last face dropped", groups.group_differential,
     "for i in range(1, n + 2):", "for i in range(1, n + 1):",
     [test_laws.test_averaging_is_a_contracting_homotopy_of_the_bar_differential]),
    ("psi_is_iso: a square singular psi taken as invertible", linalg.ChainMap.psi_is_iso,
     "and rank(psi) == psi.rows)", ")",
     [test_cohomology.test_a_singular_psi_takes_the_cone_route]),
    ("MCochain.first_nonzero: the eta block skipped", cohomology.MCochain.first_nonzero,
     "if (col :=", "if name != \"eta\" and (col :=",
     [test_cohomology.test_check_derivation_names_the_one_failing_identity,
      test_cohomology.test_mcochain_coboundary_sum_and_first_nonzero_follow_the_flat_layout]),
    ("MCochain.__sub__: adding in place of subtracting", cohomology.MCochain.__sub__,
     "self._plus(other, -1)", "self._plus(other, 1)",
     [test_extensions.test_not_simply_cohomologous_when_only_the_sum_is_the_coboundary]),
    ("product_is_zero: the last row skipped", linalg.product_is_zero,
     "for row in a._num:", "for row in a._num[:-1]:",
     [test_linalg.test_complex_refuses_non_square_zero_and_oversized]),
    ("Complex.rank: no d . d check before a reduced rank", linalg.Complex.rank,
     "self.verify(k)", "None",
     [test_linalg.test_complex_refuses_non_square_zero_and_oversized,
      test_cohomology.test_default_and_simple_paths_refuse_non_intertwining_psi]),
    ("Complex.rank: a rank of s_n kept as the rank of d_n", linalg.Complex.rank,
     "self._ranks[n, simple] = r", "self._ranks[n, False] = r",
     [_table_calls("a1_sl2_doc", simple=True)]),
    ("Complex.rank: the acyclic formula reads dim C^{k-1} for dim C^k", linalg.Complex.rank,
     "r = self.dim(k) - self.known_h(k) - r", "r = self.dim(k - 1) - self.known_h(k) - r",
     [partial(test_laws.test_maschke_morphism_group_cohomology_vanishes, "z4-to-z2-sign", False),
      _cli_referee(test_cli.TestGroupCohomology().test_sign_module)]),
    ("Complex.rank: the dim H^n term dropped from the known-cohomology formula",
     linalg.Complex.rank,
     "r = self.dim(k) - self.known_h(k) - r", "r = self.dim(k) - r",
     [partial(test_linalg.test_known_cohomology_ranks_equal_the_elimination, sl2,
              o_betti_sl2_power(1)),
      partial(test_linalg.test_known_cohomology_ranks_equal_the_elimination, heis,
              o_betti_heis(1))]),
    ("Complex.rank: s_n read off the known-cohomology formula", linalg.Complex.rank,
     "r is None and not simple and", "r is None and",
     [test_linalg.test_the_simple_variant_never_takes_the_known_cohomology]),
    ("ce_differential: the sign of the action terms", cecomplex.ce_differential,
     "1 - 2 * (i % 2))", "2 * (i % 2) - 1)",
     [test_cecomplex.test_differential_matches_oracle_on_all_fixtures,
      partial(test_laws.test_ce_differential_applies_like_the_oracle, "sl3", "adjoint")]),
    ("ce_differential: the sign of the bracket terms", cecomplex.ce_differential,
     "pair_sign = 1 if", "pair_sign = -1 if",
     [test_cecomplex.test_differential_matches_oracle_on_all_fixtures,
      partial(test_laws.test_ce_differential_applies_like_the_oracle, "sl3", "adjoint")]),
    ("wedge_minor_matrix: the permutation sign dropped", cecomplex.wedge_minor_matrix,
     "step.get(u, 0) + sign * x * y", "step.get(u, 0) + x * y",
     [test_cecomplex.test_wedge_minor_top_degree_is_determinant]),
]


@pytest.mark.parametrize("kernel, old, new, referees", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(monkeypatch, kernel, old, new, referees):
    monkeypatch.setattr(kernel, "__code__", _mutant_code(kernel, old, new))
    for referee in referees:
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            referee()

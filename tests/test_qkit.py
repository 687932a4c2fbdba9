import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumrank
from sumrank import intersections, qkit
from sumrank.compositions import enumerate_uniform
from sumrank.intersections import IntersectionQuery, sumrank_intersection_exact
from sumrank.oracle import check_prime_field
from sumrank.qkit import (
    InternalInconsistencyError,
    exact_div,
    gaussian_binomial,
    is_prime_power,
    num_matrices_rank,
    q_krawtchouk,
    running_sums,
    smallest_prime_factor,
)
from sumrank.volumes import Params


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(7, 0, 3) == 1
    assert gaussian_binomial(3, 5, 2) == 0
    # frozen from enumerating row-reduced echelon forms of 2-dim subspaces of F_2^4
    assert gaussian_binomial(4, 2, 2) == 35


def test_gaussian_binomial_matches_subspace_enumeration():
    # independent oracle: count subspaces of F_2^4 of each dimension directly
    from sumrank.oracle import _all_subspaces

    for k in range(5):
        assert gaussian_binomial(4, k, 2) == len(_all_subspaces(4, k, 2))


def test_gaussian_binomial_rejects_small_q():
    with pytest.raises(ValueError):
        gaussian_binomial(4, 2, 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gaussian_binomial_symmetry(q):
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_num_matrices_rank_values():
    # frozen from enumerating all sixteen 2x2 binary matrices
    assert num_matrices_rank(2, 2, 0, 2) == 1
    assert num_matrices_rank(2, 2, 1, 2) == 9
    assert num_matrices_rank(2, 2, 2, 2) == 6
    assert num_matrices_rank(2, 2, 3, 2) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_rank_counts_partition_the_space(q):
    for n in range(1, 5):
        for m in range(1, 5):
            total = sum(
                num_matrices_rank(n, m, t, q) for t in range(min(m, n) + 1)
            )
            assert total == q ** (m * n)


def test_q_krawtchouk_values():
    assert q_krawtchouk(0, 1, 3, 2, 2) == 1
    assert q_krawtchouk(0, 0, 5, 4, 3) == 1
    # frozen from direct two-term evaluation
    assert q_krawtchouk(1, 0, 2, 2, 2) == 9
    assert q_krawtchouk(1, 2, 2, 2, 2) == -3


@pytest.mark.parametrize("q", [2, 3])
def test_q_krawtchouk_at_zero_counts_matrices(q):
    for n in range(1, 5):
        for m in range(1, 5):
            for j in range(n + 1):
                assert q_krawtchouk(j, 0, n, m, q) == num_matrices_rank(n, m, j, q)


def test_q_krawtchouk_rejects_out_of_range():
    with pytest.raises(ValueError):
        q_krawtchouk(1, 5, 3, 2, 2)
    with pytest.raises(ValueError):
        q_krawtchouk(1, 0, 3, 2, 1)


@st.composite
def _tables(draw):
    """Rectangular integer tables, negative entries and big ints included."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-(2**70), 2**70), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_running_sums_sum_every_leading_rectangle(table):
    sums = running_sums(table)
    assert len(sums) == len(table) and {len(row) for row in sums} == {len(table[0])}
    for a, row in enumerate(sums):
        for b, value in enumerate(row):
            assert value == sum(sum(r[: b + 1]) for r in table[: a + 1])


def test_is_prime_power():
    assert [q for q in range(30) if is_prime_power(q)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29
    ]


def test_is_prime_power_matches_a_sieve_below_1e5():
    limit = 10**5
    least = list(range(limit))
    for d in range(2, math.isqrt(limit) + 1):
        if least[d] == d:
            for multiple in range(d * d, limit, d):
                least[multiple] = min(least[multiple], d)
    expected = []
    for q in range(2, limit):
        rest = q
        while rest % least[q] == 0:
            rest //= least[q]
        if rest == 1:
            expected.append(q)
    assert [q for q in range(limit) if is_prime_power(q)] == expected


def test_large_prime_powers_are_certified_by_a_small_factor():
    assert is_prime_power(2**64) and is_prime_power(3**40)
    assert not is_prime_power(2**64 * 3)
    # up to bound^2 trial division up to the bound still proves primality
    assert is_prime_power(999999999989)


def test_a_large_q_query_divides_once_per_q():
    # every count checks q, by trial division up to 10^6 at this q unless cached
    q = 999999999989
    smallest_prime_factor.cache_clear()
    p = Params(q=q, m=10, eta=10, ell=2)
    for profile in enumerate_uniform(10, 2, 10):
        sumrank_intersection_exact(IntersectionQuery(p=p, u=10, s=10, tprofile=profile))
    info = smallest_prime_factor.cache_info()
    assert info.misses == 1 and info.hits > 0


@pytest.mark.parametrize("q", [2**61 - 1, 1000003 * 1000033])
def test_uncertifiable_q_is_refused_not_reported_prime(q):
    for check in (is_prime_power, smallest_prime_factor, check_prime_field):
        with pytest.raises(qkit.InputError, match=f"no factor up to {qkit.TRIAL_DIVISION_BOUND}"):
            check(q)


def test_internal_inconsistency_error_is_one_class():
    assert intersections.InternalInconsistencyError is qkit.InternalInconsistencyError
    assert sumrank.InternalInconsistencyError is qkit.InternalInconsistencyError


def test_exact_div_refuses_a_remainder():
    assert exact_div(-12, 4, "x") == -3
    with pytest.raises(InternalInconsistencyError, match=r"^J: division not exact$"):
        exact_div(7, 3, "J")


def test_integrality_check_survives_optimize():
    # a non-integral q is the one way to reach the check; -O strips asserts
    src = str(Path(qkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "from sumrank.qkit import InternalInconsistencyError, gaussian_binomial\n"
        "try:\n    gaussian_binomial(2, 1, 2.5)\n"
        "except InternalInconsistencyError:\n    print('raised')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised\n"


def test_package_source_has_no_assert():
    for path in Path(sumrank.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def _open_calls(node, owner):
    # the innermost function around each open() or x.open() call
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _open_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and "open" in (
            getattr(child.func, "id", None), getattr(child.func, "attr", None)
        ):
            yield owner
        yield from _open_calls(child, owner)


def test_package_source_opens_files_only_in_cli_main():
    # one output path: cli.main is the only code that writes a file
    owners = [
        (path.name, owner)
        for path in sorted(Path(sumrank.__file__).parent.glob("*.py"))
        for owner in _open_calls(ast.parse(path.read_text()), None)
    ]
    assert owners == [("cli.py", "main")]


def test_only_cli_assigns_exit_codes():
    # the exit-code rule has one home, beside the handlers that return the codes
    owners = {
        path.name
        for path in Path(sumrank.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.startswith("EXIT_")
    }
    assert owners == {"cli.py"}


def test_input_error_is_the_one_refusal_class():
    assert issubclass(qkit.InputError, ValueError)
    assert sumrank.InputError is qkit.InputError


def test_package_source_raises_no_plain_value_error():
    # a refusal is an InputError; a plain ValueError out of sumrank is a fault
    for path in Path(sumrank.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        raised = {
            node.exc.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
        }
        assert "ValueError" not in raised, path.name

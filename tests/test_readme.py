"""The README's library quick tour runs as written and its commented results
hold, and its scalar grammar is the one `parse_scalar` states."""
import inspect
import re
import textwrap
from fractions import Fraction
from pathlib import Path

from bochner import GaussianRational, Poly, parse_scalar

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs_and_its_comments_hold():
    namespace = {}
    exec(compile(quick_tour_source(), str(README), "exec"), namespace)
    system = namespace["system"]
    assert system.lambdas[:3] == tuple(GaussianRational(v) for v in (0, -2, -4))
    assert system.polys[2] == Poly([Fraction(-1, 2), 0, 1])  # x^2 - 1/2
    assert namespace["bandwidth"](namespace["coeffs"], 5) == 1
    assert namespace["reconstruct"](system, 2) == namespace["hermite_operator"]()


def test_scalar_grammar_is_the_docstring_block():
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    readme_block = re.search(r"```text\n(.*?)```", section, re.DOTALL).group(1)
    # the docstring's second paragraph is its grammar block
    doc_block = inspect.getdoc(parse_scalar).split("\n\n")[1]
    assert readme_block == textwrap.dedent(doc_block) + "\n"
    assert readme_block.startswith("sign      = ")

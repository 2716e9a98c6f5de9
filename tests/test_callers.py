"""Every function, class and method of the package has a caller in the package.

A definition counts as called when its name is read somewhere in
``src/gantrace`` outside its own body: a top-level function or class as a
name or an attribute, a method only as an attribute.  A re-export in
``__init__.py`` is not a call.  Names are matched without their owner, so
two methods of one name share their callers.  Code that only the tests
call belongs in ``tests/``; the few names kept for other readers are
listed in ``ALLOWED`` with the reason.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gantrace"

ALLOWED = {
    "models.data_term_scores": "the benchmark wraps and counts it by name",
    "autodiff.vjp_gradient_call_count": "the benchmark reads the sweep's VJP count",
    "training.trace_checksum": "the benchmark checks each retrained trace with it",
    "experiments.sign_test_greater": "the planned claims report reads its p-values",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node, whether a method) of each top-level function
    and class and each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _reads(tree: ast.Module):
    """(name, read as an attribute, ids of the enclosing definitions) of
    every name and attribute read in ``tree``."""
    reads = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, False, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, True, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return reads


def uncalled(package: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = [read for module, tree in trees.items() if module != "__init__"
             for read in _reads(tree)]
    missing = []
    for module, tree in trees.items():
        for name, node, is_method in _definitions(module, tree):
            if not any(read == node.name and (as_attribute or not is_method)
                       and id(node) not in enclosing
                       for read, as_attribute, enclosing in reads):
                missing.append(name)
    return missing


def test_every_definition_has_a_caller_in_the_package():
    # Exactly the allowed names lack one: an entry leaves the list when its
    # name gains a caller or is deleted.
    assert sorted(uncalled(PACKAGE)) == sorted(ALLOWED)


def readers(name: str, package: Path) -> set[str]:
    """The qualified name of every definition in ``package`` that reads or
    imports ``name``, or the module's name for a read outside them all."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr == name
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_parameters_are_stepped_in_one_loop():
    # Training and every replay step through ``step_records``, which keeps
    # a replay that drops nothing bit-exact by construction; a second loop
    # that calls ``asgd_step`` fails here.
    assert readers("asgd_step", PACKAGE) == {"training.step_records"}


def test_only_the_experiments_replay():
    # ``estimates_and_truths`` replays each target beside its estimate and
    # ``run_data_cleansing`` each harmful selection; a third caller, say a
    # layer of truths between them, fails here.  ``experiments`` itself is
    # its import.
    assert readers("counterfactual_retrain", PACKAGE) - {"__init__"} == {
        "experiments", "experiments.estimates_and_truths", "experiments.run_data_cleansing"}


def test_the_oracle_reads_no_metric():
    # The oracle returns replayed parameters, and the experiments read them
    # through ``metrics.metric_reader``: no name of ``metrics``, nor the
    # module, is read or imported in ``oracle``.
    tree = ast.parse((PACKAGE / "metrics.py").read_text())
    names = ["metrics"] + [node.name for _, node, is_method in _definitions("metrics", tree)
                           if not is_method]
    assert [name for name in names
            if any(reader.split(".")[0] == "oracle" for reader in readers(name, PACKAGE))] == []


@pytest.mark.parametrize("name", ["CLASSIFIER_DIR", "save_trace", "save_classifier",
                                  "CleansingRow", "TableTwin"])
def test_stored_formats_are_written_and_read_in_experiments(name):
    # ``save_seed_run`` and ``load_seed_run`` own the stored run,
    # ``write_report`` and ``read_report`` the reports, and
    # ``write_influence_table`` and ``read_influence_table`` the influence
    # table; a second writer or parser of any, in the CLI say, fails here.
    # ``__init__``'s re-exports are not reads.
    assert {reader.split(".")[0] for reader in readers(name, PACKAGE)} - {"__init__"} \
        == {"experiments"}


def test_stored_json_is_parsed_in_one_place():
    # Every stored JSON file, manifests, twin and reports, is read through
    # ``read_record``; a format that parses its own JSON fails here.
    assert readers("loads", PACKAGE) == {"training.read_record"}

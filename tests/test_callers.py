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
import functools
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


@functools.cache
def _trees(package: Path) -> dict[str, ast.Module]:
    """Each module of ``package`` by name, parsed once for every test here."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


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
    trees = _trees(package)
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


@functools.cache
def _reads_by_owner(package: Path) -> tuple[tuple[str, str], ...]:
    """(name, owner) of every name or attribute read and every name
    imported in ``package``, found in one walk: the owner is the qualified
    name of the enclosing definition, or the module's name outside them all."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, owner))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, owner))
        elif isinstance(node, ast.ImportFrom):
            found.extend((alias.name, owner) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for module, tree in _trees(package).items():
        visit(tree, module)
    return tuple(found)


def readers(name: str, package: Path) -> set[str]:
    """The qualified name of every definition in ``package`` that reads or
    imports ``name``, or the module's name for a read outside them all."""
    return {owner for read, owner in _reads_by_owner(package) if read == name}


def test_parameters_are_stepped_in_one_loop():
    # Training and every replay step through ``step_records``, which keeps
    # a replay that drops nothing bit-exact by construction; a second loop
    # that calls ``asgd_step`` fails here.
    assert readers("asgd_step", PACKAGE) == {"training.step_records"}


def test_both_networks_step_on_one_schedule_and_one_divergence_rule():
    # The GAN and the IS/FID classifier draw their epochs from one shuffler
    # and stop at one check; a second permutation loop or a second reading
    # of the limit fails here.
    assert readers("permutation", PACKAGE) == {"training.minibatch_schedule"}
    assert readers("DIVERGENCE_LIMIT", PACKAGE) == {"training.check_bounded"}


def test_only_the_experiments_replay():
    # ``replayed_readings`` replays and reads each distinct selection, for
    # the oracle's targets and cleansing's harmful sets alike; a second
    # caller, say a loop of truths beside it, fails here.  ``experiments``
    # itself is its import.
    assert readers("counterfactual_retrain", PACKAGE) - {"__init__"} == {
        "experiments", "experiments.replayed_readings"}


def test_the_oracle_reads_no_metric():
    # The oracle returns replayed parameters, and the experiments read them
    # from one ``metrics.generated_set`` each: no name of ``metrics``, nor
    # the module, is read or imported in ``oracle``.
    names = ["metrics"] + [node.name for _, node, is_method
                           in _definitions("metrics", _trees(PACKAGE)["metrics"])
                           if not is_method]
    assert [name for name in names
            if any(reader.split(".")[0] == "oracle" for reader in readers(name, PACKAGE))] == []


def test_samples_are_generated_in_one_place():
    # Every reading and query, ``disc_loss``'s too, reads the samples of a
    # ``GeneratedSet``, which ``generated_set`` alone makes; a metric that
    # runs the generator for itself fails here.
    assert readers("generator_forward", PACKAGE) == {"metrics.generated_set"}


def test_queries_pull_back_through_the_generator_in_one_place():
    # Every query's generator block, ``disc_loss``'s too, comes from
    # ``generator_pullback``, and the generator network is read only by its
    # forward pass and the VJP's backward through it (the gradient kernels
    # read the layers off the flat vector); a second chain through the
    # generator fails here.
    assert readers("generator_vjp", PACKAGE) == {"metrics.generator_pullback"}
    assert readers("gen_net", PACKAGE) - {"models.FcGan.__init__", "models.FcGan.init_params"} \
        == {"models.FcGan.generator_forward", "models.FcGan.generator_vjp"}


def test_each_network_runs_forward_in_one_place():
    # A dense stack runs forward only in the generator's pass, the
    # discriminator's one ``disc_loss`` pass and the classifier's record and
    # trainer, and the discriminator network is read only by that pass and
    # the ``disc_loss`` gradient's backward through it; a reading or query
    # that runs a network a second time fails here.
    assert readers("forward", PACKAGE) == {
        "models.FcGan.generator_forward", "models.FcGan._disc_pass",
        "metrics.Classifier.record", "metrics.train_classifier"}
    assert readers("disc_net", PACKAGE) - {"models.FcGan.__init__", "models.FcGan.init_params"} \
        == {"models.FcGan._disc_pass", "models.FcGan.expected_disc_loss_gradient"}


@pytest.mark.parametrize("name", ["CLASSIFIER_DIR", "save_trace", "save_classifier",
                                  "CleansingRow"])
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


def test_stored_json_is_written_in_one_place():
    # Every stored JSON file is written through ``write_record``, and every
    # fingerprint over JSON starts from ``json_digest``; a writer or a hash
    # that encodes its own JSON fails here.
    assert readers("dumps", PACKAGE) == {"training.write_record", "training.json_digest"}
    assert readers("write_text", PACKAGE) == {"training.write_record"}


def test_metric_kinds_are_named_in_metrics_alone():
    # What a kind is lives in ``metrics._KINDS`` alone: no other module
    # names the classifier metrics, and no reading, query or config branches
    # on them; a rule kept beside the table fails here.
    naming = {module for module, tree in _trees(PACKAGE).items() for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value in ("is", "fid")}
    assert naming == {"metrics"}
    assert {reader.split(".")[0] for reader in readers("_KINDS", PACKAGE)} == {"metrics"}

"""Repository layout: no unreachable module, one benchmark door, no dead path.

Static checks over the source tree (``ast`` and ``re`` only, nothing is
imported or executed):

* every module under ``src/repro`` is imported, directly or transitively,
  by an entry point -- the CLI, the shard worker process, a ``bench/``
  workload, a ``benchmarks/`` experiment script or an example;
* ``src/repro`` names the ``benchmarks/`` directory in exactly one place,
  the ``repro bench`` launcher, whose every choice is an existing script;
* every repository path the docs and the CI workflow name exists.
"""

import ast
import fnmatch
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.net.shard_worker")
ENTRY_SCRIPT_DIRS = ("bench", "benchmarks", "examples")

DOCS = (
    ["README.md", "DESIGN.md", "EXPERIMENTS.md",
     ".claude/skills/verify/SKILL.md"]
    + sorted("docs/" + name for name in os.listdir(os.path.join(ROOT, "docs"))
             if name.endswith(".md"))
)
CI_FILE = ".github/workflows/ci.yml"
PATH_SUFFIXES = (".py", ".md", ".json", ".txt", ".yml")
TOP_DIRS = ("src", "tests", "bench", "benchmarks", "docs", "examples")


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _module_path(name):
    """The file defining dotted module ``name`` under src/, or None."""
    base = os.path.join(SRC, *name.split("."))
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(candidate):
            return candidate
    return None


def _imported_modules(path):
    """Every ``repro`` module a file's import statements can load."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [
                "{}.{}".format(node.module, alias.name)
                for alias in node.names
            ]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] != "repro":
                continue
            # Importing a.b.c runs a/__init__ and a/b/__init__ too.
            for end in range(1, len(parts) + 1):
                prefix = ".".join(parts[:end])
                if _module_path(prefix):
                    found.add(prefix)
    return found


def _repro_sources():
    """Every ``.py`` file under src/repro."""
    for folder, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for filename in files:
            if filename.endswith(".py"):
                yield os.path.join(folder, filename)


def test_every_module_is_reachable_from_an_entry_point():
    pending = set(ENTRY_MODULES)
    for directory in ENTRY_SCRIPT_DIRS:
        for script in glob.glob(os.path.join(ROOT, directory, "*.py")):
            pending |= _imported_modules(script)
    reached = set()
    while pending:
        name = pending.pop()
        reached.add(name)
        pending |= _imported_modules(_module_path(name)) - reached

    every = {
        os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
        for path in _repro_sources()
        if os.path.basename(path) != "__init__.py"
    }
    assert sorted(every - reached) == []


def _cli_and_launcher():
    """The parsed CLI module and its ``_cmd_bench`` function node."""
    tree = _parse(_module_path("repro.cli"))
    launcher = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_bench"
    )
    return tree, launcher


def test_only_the_bench_launcher_names_the_benchmarks_directory():
    _tree, launcher = _cli_and_launcher()
    mention = re.compile(r"benchmarks/|[\"']benchmarks[\"']|\bbench_\w+")
    cli_path = _module_path("repro.cli")
    offenders = []
    for path in _repro_sources():
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if path == cli_path and (launcher.lineno <= number
                                         <= launcher.end_lineno):
                    continue
                if mention.search(line):
                    offenders.append("{}:{}".format(
                        os.path.relpath(path, ROOT), number))
    assert offenders == []


def test_every_bench_experiment_choice_is_an_existing_script():
    tree, launcher = _cli_and_launcher()
    modules = next(
        ast.literal_eval(node.value) for node in ast.walk(launcher)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
    )
    choices = next(
        ast.literal_eval(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "--experiment"
        for keyword in node.keywords if keyword.arg == "choices"
    )
    assert sorted(choices) == sorted(modules)
    for script in modules.values():
        assert os.path.isfile(
            os.path.join(ROOT, "benchmarks", script + ".py")), script


def _all_basenames():
    names = set()
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__")]
        names.update(files)
    return names


def _dotted_resolves(name):
    """``repro.a.b[.Attr]``: every part up to the first module exists."""
    folder = SRC
    for part in name.split("."):
        if os.path.isdir(os.path.join(folder, part)):
            folder = os.path.join(folder, part)
        else:
            # A module ends the walk (the rest names an attribute); on a
            # package only a capitalised attribute may follow.
            return (os.path.isfile(os.path.join(folder, part + ".py"))
                    or part[:1].isupper())
    return True


def _path_resolves(word, doc_dir, package_dirs, basenames):
    if "/" not in word:
        # A bare file name: inside the package its line names, else
        # anywhere in the repository.
        if package_dirs:
            return any(glob.glob(os.path.join(d, word))
                       for d in package_dirs)
        return bool(fnmatch.filter(basenames, word))
    return any(
        glob.glob(os.path.join(base, word))
        for base in (ROOT, doc_dir, SRC)
    )


def _dead_doc_paths(doc, basenames):
    dead = []
    doc_dir = os.path.dirname(os.path.join(ROOT, doc))
    with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, 1):
        spans = re.findall(r"`([^`]+)`", line)
        dotted = [name for span in spans
                  for name in re.findall(r"\brepro(?:\.\w+)+", span)]
        package_dirs = [
            os.path.join(SRC, *name.split(".")) for name in dotted
            if os.path.isdir(os.path.join(SRC, *name.split(".")))
        ]
        for name in dotted:
            if not _dotted_resolves(name):
                dead.append("{}:{} {}".format(doc, number, name))
        for span in spans:
            for word in span.split():
                word = word.split("::")[0].rstrip(".,;:)")
                is_path = word.endswith(PATH_SUFFIXES) or (
                    "/" in word and word.split("/")[0] in TOP_DIRS)
                if (not is_path or word.startswith("/")
                        or "<" in word or "=" in word):
                    continue
                if not _path_resolves(word, doc_dir, package_dirs,
                                      basenames):
                    dead.append("{}:{} {}".format(doc, number, word))
    return dead


def test_every_path_the_docs_and_ci_name_exists():
    basenames = _all_basenames()
    dead = []
    for doc in DOCS:
        dead += _dead_doc_paths(doc, basenames)
    with open(os.path.join(ROOT, CI_FILE), encoding="utf-8") as handle:
        for script in sorted(set(re.findall(r"[\w./-]+\.py\b",
                                            handle.read()))):
            if not os.path.isfile(os.path.join(ROOT, script)):
                dead.append("{} {}".format(CI_FILE, script))
    assert dead == []

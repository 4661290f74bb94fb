"""Guard: the session wait paths wake on events, they do not sleep-poll.

Every wall-clock wait of the threaded and distributed sessions goes
through :class:`repro.runtime.wake.Wake`. A ``time.sleep`` creeping back
into those paths is a polling tick — the 50 ms quiet window and the 2/5 ms
poll loops this guard replaced made every debugger verb cost a tick
instead of its work.
"""

import ast
import os

import pytest

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: file -> None (whole module) or {class: methods} to scan.
GUARDED = {
    "debugger/threaded_session.py": None,
    "distributed/session.py": None,
    "runtime/threaded.py": {
        "ThreadedSystem": {"run_until", "settle", "quiet_for"},
    },
}


def _sleep_calls(tree: ast.AST):
    """Line numbers of ``time.sleep(...)`` / bare ``sleep(...)`` calls."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "sleep":
            yield node.lineno
        elif isinstance(func, ast.Name) and func.id == "sleep":
            yield node.lineno


def _scopes(module: ast.Module, selection):
    if selection is None:
        yield "<module>", module
        return
    for node in module.body:
        if isinstance(node, ast.ClassDef) and node.name in selection:
            wanted = set(selection[node.name])
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in wanted:
                    wanted.discard(item.name)
                    yield f"{node.name}.{item.name}", item
            assert not wanted, f"guarded methods vanished: {sorted(wanted)}"


@pytest.mark.parametrize("relative", sorted(GUARDED))
def test_no_sleep_in_session_wait_paths(relative):
    path = os.path.join(SRC, *relative.split("/"))
    with open(path, encoding="utf-8") as fp:
        module = ast.parse(fp.read(), filename=path)
    scopes = list(_scopes(module, GUARDED[relative]))
    assert scopes, f"nothing to scan in {relative}"
    offenders = [
        f"{relative}:{line} ({scope})"
        for scope, tree in scopes
        for line in _sleep_calls(tree)
    ]
    assert not offenders, (
        "sleep-poll reintroduced in a session wait path — wait on "
        "system.wake instead: " + ", ".join(offenders)
    )


def test_guard_sees_a_sleep_when_there_is_one():
    planted = ast.parse(
        "import time\n"
        "class ThreadedSystem:\n"
        "    def settle(self):\n"
        "        while True:\n"
        "            time.sleep(0.005)\n"
    )
    [(scope, tree)] = _scopes(planted, {"ThreadedSystem": {"settle"}})
    assert scope == "ThreadedSystem.settle"
    assert list(_sleep_calls(tree)) == [5]

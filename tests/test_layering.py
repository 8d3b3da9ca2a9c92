"""Package layering: ``repro.campaign`` sits below ``repro.service``.

The coordinator, its agents and ``run_supervised`` import campaign
code; campaign code must never import them back.  The one exception is
``campaign/cache.py``, whose ``ResultCache`` fronts the store backends
that live in ``repro.service.stores``.
"""

import ast
from pathlib import Path

CAMPAIGN = Path(__file__).resolve().parents[1] / "src" / "repro" / "campaign"

#: (module file, imported module) pairs allowed to cross upwards.
ALLOWED = {("cache.py", "repro.service.stores")}


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module


def test_campaign_never_imports_service():
    offenders = []
    allowed_hits = 0
    for path in sorted(CAMPAIGN.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imports(tree):
            if module != "repro.service" and not module.startswith(
                "repro.service."
            ):
                continue
            if (path.name, module) in ALLOWED:
                allowed_hits += 1
            else:
                offenders.append(f"{path.name}:{lineno} imports {module}")
    assert offenders == []
    assert allowed_hits == 3  # cache.py's lazy store imports

"""Package layering: ``repro.campaign`` sits below ``repro.service``.

The coordinator, its agents and ``run_supervised`` import campaign
code; campaign code must never import them back.  The result-store
backends live in ``repro.campaign.stores`` for that reason.
"""

import ast
from pathlib import Path

CAMPAIGN = Path(__file__).resolve().parents[1] / "src" / "repro" / "campaign"


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module


def test_campaign_never_imports_service():
    offenders = []
    for path in sorted(CAMPAIGN.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imports(tree):
            if module == "repro.service" or module.startswith("repro.service."):
                offenders.append(f"{path.name}:{lineno} imports {module}")
    assert offenders == []

"""Documentation consistency: referenced paths and ids must exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        ROOT / "docs" / "MODEL.md", ROOT / "docs" / "PAPER_MAP.md"]


class TestDocsExist:
    def test_required_documents_present(self):
        for doc in DOCS:
            assert doc.exists(), doc
        assert (ROOT / "pyproject.toml").exists()

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "HPCA 2025" in text
        assert "OASIS" in text


class TestReferencedPathsExist:
    @pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
    def test_backticked_repo_paths_exist(self, doc):
        text = doc.read_text()
        missing = []
        for match in re.finditer(r"`((?:src|tests|benchmarks|examples|docs)"
                                 r"/[^`\s]+\.(?:py|md))`", text):
            path = ROOT / match.group(1)
            if not path.exists():
                missing.append(match.group(1))
        assert not missing, f"{doc.name} references missing paths: {missing}"

    @pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
    def test_backticked_modules_importable(self, doc):
        import importlib

        text = doc.read_text()
        failures = []
        for match in set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text)):
            try:
                importlib.import_module(match)
            except ImportError:
                # Might be an attribute reference like repro.config.foo.
                module, _, attr = match.rpartition(".")
                try:
                    mod = importlib.import_module(module)
                except ImportError:
                    failures.append(match)
                    continue
                if not hasattr(mod, attr):
                    failures.append(match)
        assert not failures, f"{doc.name}: unimportable {failures}"


class TestExperimentIdsInDocs:
    def test_design_lists_every_experiment(self):
        from repro.harness import EXPERIMENTS

        text = (ROOT / "DESIGN.md").read_text()
        for exp_id in EXPERIMENTS:
            if exp_id.startswith("fig"):
                # Experiment ids appear as bench targets in the index.
                number = exp_id[3:]
                assert (f"fig{number}" in text
                        or f"fig{int(number):02d}" in text), exp_id


class TestReadmeArchitecture:
    def test_tree_names_every_package(self):
        text = (ROOT / "README.md").read_text()
        tree = text.split("## Architecture", 1)[1].split("```")[1]
        packages = sorted(
            path.parent.name
            for path in (ROOT / "src" / "repro").glob("*/__init__.py")
        )
        missing = [
            name for name in packages
            if not re.search(rf"^\s+{name}/", tree, re.MULTILINE)
        ]
        assert not missing, f"README Architecture tree omits {missing}"


#: An environment knob's name.
KNOB = r"REPRO_[A-Z][A-Z0-9_]*"


def _knobs_read(*dirs: str) -> set[str]:
    """Knob names quoted as whole string literals in Python files."""
    names: set[str] = set()
    for name in dirs:
        for path in (ROOT / name).rglob("*.py"):
            names.update(re.findall(rf"[\"']({KNOB})[\"']", path.read_text()))
    return names


class TestKnobInventory:
    def test_model_documents_exactly_the_knobs_read(self):
        documented = set(re.findall(KNOB, (ROOT / "docs" / "MODEL.md")
                                    .read_text()))
        undocumented = sorted(_knobs_read("src") - documented)
        assert not undocumented, f"docs/MODEL.md omits {undocumented}"
        unread = sorted(
            documented
            - _knobs_read("src", "scripts", "benchmarks", "perfbench")
        )
        assert not unread, f"docs/MODEL.md names knobs nothing reads: {unread}"

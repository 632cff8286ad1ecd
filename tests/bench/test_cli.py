"""The ``python -m repro`` experiment runner."""

import pytest

from repro.__main__ import EXPERIMENTS, FAST, SUBCOMMANDS, main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_no_args_enumerates_every_subcommand(capsys):
    """Bare ``python -m repro`` is the discoverability surface: every
    subcommand must appear with its one-line description."""
    assert main([]) == 0
    out = capsys.readouterr().out
    for name, (__, description) in SUBCOMMANDS.items():
        assert name in out
        assert description in out
    for key in EXPERIMENTS:
        assert key in out
    assert "fast" in out and "all" in out and "list" in out


def test_help_enumerates_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name, (__, description) in SUBCOMMANDS.items():
        assert name in out
        assert description in out


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_subcommand_table_modules_expose_main():
    """Every dispatch target must import and offer ``main(argv)``."""
    import importlib

    for name, (module_name, __) in SUBCOMMANDS.items():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, "main")), (name, module_name)


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_single_fast_experiment_runs(capsys):
    assert main(["t2"]) == 0
    out = capsys.readouterr().out
    assert "five-minute rule" in out
    assert "shape check: OK" in out


def test_duplicates_deduped(capsys):
    assert main(["a4", "a4"]) == 0
    out = capsys.readouterr().out
    assert out.count("[a4]") == 1


def test_fast_alias_covers_analytic_subset(capsys):
    assert main(["fast"]) == 0
    out = capsys.readouterr().out
    for key in FAST:
        assert f"[{key}]" in out

"""Command-line interface."""

import pytest

from repro.cli import _SUBCOMMANDS, _run_tree_figure, build_parser, main
from repro.experiments.figures import FIGURES


def test_tree_subcommands_are_the_figures_table():
    tree = [name for name, (_, _, run) in _SUBCOMMANDS.items()
            if run is _run_tree_figure]
    assert tree == list(FIGURES) == ["fig7", "fig8", "fig9", "fig10"]
    parser = build_parser()
    defaults = {name: parser.parse_args([name]).cases for name in tree}
    assert defaults == {"fig7": [1, 2, 3, 4, 5], "fig8": [1, 2, 3, 4, 5],
                        "fig9": [1, 2, 3, 4, 5], "fig10": [1, 2]}


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["fig7", "--duration", "30", "--cases", "1", "3"])
    assert args.figure == "fig7"
    assert args.duration == 30.0
    assert args.cases == [1, 3]


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig4_runs(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "drift field" in out


def test_fig5_runs(capsys):
    assert main(["fig5", "--steps", "5000"]) == 0
    out = capsys.readouterr().out
    assert "mean cwnds" in out


def test_multisession_honours_the_runtime_options(tmp_path, capsys):
    # --workers/--cache/--metrics used to be accepted and silently ignored
    argv = ["multisession", "--duration", "1", "--warmup", "0.5"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    cached = [*argv, "--metrics", "--cache", str(tmp_path / "cache")]
    for source in ("0 cached", "1 cached"):
        assert main(cached) == 0
        table, _, footer = capsys.readouterr().out.partition("\nruntime summary")
        assert table == plain
        assert f"1 runs ({source}, 0 failed)" in footer

"""The exception hierarchy."""

import pytest

from repro import errors


def test_all_derive_from_repro_error():
    for exc in (errors.ConfigurationError, errors.SimulationError,
                errors.SchedulingError, errors.RoutingError,
                errors.TopologyError):
        assert issubclass(exc, errors.ReproError)


def test_scheduling_is_simulation_error():
    assert issubclass(errors.SchedulingError, errors.SimulationError)
    assert issubclass(errors.RoutingError, errors.SimulationError)


def test_topology_is_configuration_error():
    assert issubclass(errors.TopologyError, errors.ConfigurationError)


def test_catchable_as_base():
    with pytest.raises(errors.ReproError):
        raise errors.SchedulingError("late")


@pytest.mark.parametrize("figure", ["fig7", "fig8", "fig9", "fig10"])
def test_unknown_case_id_is_a_cli_error_not_a_traceback(figure, capsys):
    """``--cases 9`` used to die with a KeyError from the case registry."""
    from repro.cli import main

    assert main([figure, "--cases", "9", "--duration", "2",
                 "--warmup", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown case 9")
    assert captured.out == ""

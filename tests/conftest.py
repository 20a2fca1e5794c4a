from __future__ import annotations

import numpy as np
import pytest

import pmegreen as pg


@pytest.fixture(scope="session")
def euclid3():
    return pg.make_profile(form="euclidean", dimension=3)


@pytest.fixture(scope="session")
def euclid5():
    return pg.make_profile(form="euclidean", dimension=5)


@pytest.fixture(scope="session")
def growth3():
    return pg.make_growth(form="power", params={"k": 3.0}, r0=1.0)


@pytest.fixture(scope="session")
def growth5():
    return pg.make_growth(form="power", params={"k": 5.0}, r0=1.0)


@pytest.fixture(scope="session")
def mass1_params():
    return pg.BarenblattParams.from_mass(3, 2.0, 1.0)


@pytest.fixture(scope="session")
def short_run(euclid3, mass1_params):
    grid = pg.RadialGrid.make(euclid3, 12.0, 400)
    record = pg.run_pme(grid, 2.0, pg.barenblatt_datum(mass1_params),
                        t_end=1.0, snapshots=[0.25, 0.5, 0.75, 1.0])
    return grid, record


def exact_record(profile, params, grid, times, eps=1.0):
    """RunRecord filled with cell averages of the closed-form solution."""
    times = np.asarray(times, dtype=float)
    states = [grid.cell_average(lambda r, t=t: pg.barenblatt(params, r,
                                                             eps + t))
              for t in times]
    return pg.RunRecord(grid=grid, m=params.m, boundary="absorbing",
                        scheme="exact", times=times, states=states,
                        outflows=np.zeros(times.size), mass_initial=1.0,
                        steps=0, wall_time=0.0)

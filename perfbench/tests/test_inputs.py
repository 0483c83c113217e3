import numpy as np

from perfbench import inputs


def test_drive_is_a_function_of_the_seed():
    first, again, other = (inputs.urban_drive(seed, n_frames=2) for seed in (5, 5, 6))
    for a, b in zip(first.frames, again.frames):
        assert np.array_equal(a.points, b.points)
    assert not np.array_equal(first.frames[1].points, other.frames[1].points)


def test_map_and_requests_are_functions_of_the_seed():
    points = inputs.map_points(5, n_points=3000)
    assert np.array_equal(points, inputs.map_points(5, n_points=3000))
    assert not np.array_equal(points, inputs.map_points(6, n_points=3000))
    for client in ("A", "B"):
        first = inputs.client_requests(points, 5, client, cycles=1)
        again = inputs.client_requests(points, 5, client, cycles=1)
        other = inputs.client_requests(points, 6, client, cycles=1)
        assert [r.kind for r in first] == [kind for kind, _ in inputs.REQUEST_CYCLE]
        assert [len(r.queries) for r in first] == [size for _, size in inputs.REQUEST_CYCLE]
        assert all(np.array_equal(a.queries, b.queries) for a, b in zip(first, again))
        assert not np.array_equal(first[0].queries, other[0].queries)


def test_path_client_stays_local_and_uniform_client_spreads():
    points = inputs.map_points(7, n_points=5000)
    spread = {client: np.ptp(inputs.client_requests(points, 7, client, cycles=1)[3].queries[:, :2],
                             axis=0).max()
              for client in ("A", "B")}
    assert spread["A"] <= 2 * inputs.PATH_DISC_M + 1.0 < spread["B"]


def test_path_loop_is_closed_and_evenly_spaced():
    points = inputs.loop_waypoints(np.array([0.0, 0.0]), np.array([100.0, 100.0]), 60)
    steps = np.linalg.norm(np.diff(np.vstack([points, points[:1]]), axis=0), axis=1)
    assert np.allclose(steps, 150.0 / 60)
    assert np.allclose(points[0], [25.0, 50.0])

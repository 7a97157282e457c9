import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def toy_noise_model():
    """Small unconditional noise model on the two-well region of the
    test surface, shared by guidance and baseline tests."""
    from diffrefine.diffusion import make_schedule, train_noise_model
    from diffrefine.potentials import WORKING_BOX, muller_brown_potential, sample_manifold_dataset
    from diffrefine.training import TrainConfig

    pot = muller_brown_potential()
    data = sample_manifold_dataset(
        pot, WORKING_BOX, n=4000, kT=10.0, seed=71
    )
    schedule = make_schedule(60, 1e-4, 0.03)
    cfg = TrainConfig(epochs=40, batch_size=128, lr=1e-3, seed=71, loss="eps")
    return train_noise_model(data, schedule, cfg, hidden=(64, 64), time_dim=16)


@pytest.fixture(scope="session")
def toy_setup():
    """Shipped demo recipe realized: landscape, trained prior,
    refinement knobs, and the demo start groups."""
    from diffrefine.baselines import build_toy_setup

    return build_toy_setup()


@pytest.fixture(scope="session")
def tabular_task():
    """Schema, small dataset, classifier, and feasible-row prior for
    the attack tests."""
    from diffrefine.adversarial import (
        generate_tabular_dataset,
        load_schema,
        train_feasible_prior,
        train_tabular_classifier,
    )
    from diffrefine.diffusion import make_schedule

    pot = load_schema()
    ds = generate_tabular_dataset(pot, 4000, 1000, 2000, seed=5)
    model = train_tabular_classifier(ds)
    prior = train_feasible_prior(ds, make_schedule(60, 1e-4, 0.03))
    return pot, ds, model, prior


@pytest.fixture(scope="session")
def pocket_model():
    """Noise model trained on cold samples inside a flat feasible pocket
    (lifted zero level), paired with the pocket potential.  Lets tests
    check that refinement keeps near-feasible points feasible."""
    from diffrefine.diffusion import make_schedule, train_noise_model
    from diffrefine.potentials import WORKING_BOX, muller_brown_potential, sample_manifold_dataset
    from diffrefine.training import TrainConfig

    pot = muller_brown_potential(margin=2.0)
    raw = sample_manifold_dataset(
        pot, WORKING_BOX, n=3000, kT=1.0, seed=29
    )
    # Cold chains cannot cross the barriers out of the side wells, so a
    # few stay stuck at positive potential; keep the feasible ones.
    data = raw[pot.value_batch(raw) == 0.0]
    schedule = make_schedule(60, 1e-4, 0.03)
    cfg = TrainConfig(epochs=60, batch_size=128, lr=1e-3, seed=29, loss="eps")
    model = train_noise_model(data, schedule, cfg, hidden=(64, 64), time_dim=16)
    return pot, data, model


@pytest.fixture(scope="session")
def acpf_task():
    """Small scenario dataset with the three grid predictors."""
    from diffrefine.baselines import (
        train_power_estimator,
        train_power_pinn,
        train_power_prior,
    )
    from diffrefine.powerflow import generate_dataset, load_case

    case = load_case("ieee14")
    ds = generate_dataset(case, 300, 80, 200, seed=3)
    base = train_power_estimator(case, ds)
    pinn = train_power_pinn(case, ds)
    prior = train_power_prior(case, ds)
    return case, ds, base, pinn, prior

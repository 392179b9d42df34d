import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agifl import scenario as scenario_module
from agifl.channel import ChannelParams, per_client_bandwidth, tx_time
from agifl.data import partition
from agifl.energy import UavProfile, user_compute_energy
from agifl.fedavg import FlConfig, cohort_size, select_clients
from agifl.models import Hyperparams, ModelSpec, param_count
from agifl.oracles import rate_direct, round_duration, uav_round_energy, user_compute_time
from agifl.placement import Area, min_sum_dist
from agifl.scenario import (FORMS, PLACEMENT_SCHEMES, BlobSource, RoundMetrics, Scenario,
                            ShapeSource, build_topology, load_corpus, load_source,
                            per_user_arrays, place_server, run_repeat, run_scenario)
from agifl.seeding import child_seed, rng


def assert_same_metrics(got, want):
    """Every RoundMetrics field equal, `selected` by value: an array field
    makes `RoundMetrics ==` raise."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(RoundMetrics):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y) if f.name == "selected" else x == y, f.name


def small_scenario(**kwargs):
    defaults = dict(
        fl=FlConfig(num_users=6, fraction=0.5,
                    hyper=Hyperparams(local_epochs=1, batch_size=10),
                    max_rounds=4),
        source=BlobSource(num_classes=3, samples_per_class=30,
                          test_samples_per_class=10, input_dim=4, spread=0.1),
        partition_scheme="iid",
        repeats=2,
        master_seed=5,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def repeat_arrays(sc, repeat=0):
    """`per_user_arrays` on the geometry, shards and payload `run_repeat` uses."""
    seed = sc.master_seed
    topo = build_topology(sc, rng(seed, repeat, "positions"))
    topo.placement = place_server(sc, topo, rng(seed, repeat, "placement"))
    train, _ = load_source(sc.source, child_seed(seed, "data"))
    shards = partition(train, sc.fl.num_users, scheme=sc.partition_scheme,
                       shards_per_user=sc.shards_per_user,
                       seed=child_seed(seed, repeat, "partition"))
    spec = ModelSpec(sc.model_kind, train.input_dim, train.num_classes, sc.hidden_dim)
    payload = param_count(spec) * sc.channel.payload_bits_per_param
    return per_user_arrays(sc, repeat, topo, np.diff(shards[1]), payload,
                           train.bits_per_sample)


class TestTopology:
    def test_g2a_fixed_server_position(self):
        sc = small_scenario(placement_scheme="fixed", fixed_position=(500.0, 500.0))
        topo = build_topology(sc, rng(0, "pos"))
        placement = place_server(sc, topo, rng(0, "placement"))
        assert (placement.x, placement.y, topo.server_alt) == (500.0, 500.0, 100.0)
        assert np.all(topo.user_alt == 0.0)
        assert np.all(topo.vertical_offsets() == 100.0)

    def test_a2a_links_are_horizontal(self):
        sc = small_scenario(form="a2a")
        topo = build_topology(sc, rng(1, "pos"))
        assert np.all(topo.vertical_offsets() == 0.0)
        topo.placement = place_server(sc, topo, rng(1, "placement"))
        assert np.all(topo.horizontal_distances() > 0)

    def test_a2g_server_at_ground_offset(self):
        sc = small_scenario(form="a2g", ground_height=10.0)
        topo = build_topology(sc, rng(2, "pos"))
        assert topo.server_alt == 10.0
        assert np.all(topo.user_alt == 100.0)
        assert np.all(topo.vertical_offsets() == 90.0)

    def test_mixed_has_both_layers(self):
        sc = small_scenario(form="mixed", fl=FlConfig(num_users=40, fraction=0.1,
                                                      max_rounds=1))
        topo = build_topology(sc, rng(3, "pos"))
        assert set(np.unique(topo.user_alt)) == {0.0, 100.0}

    def test_min_sum_dist_matches_placement_module(self):
        users = ((100.0, 100.0), (300.0, 100.0), (200.0, 400.0),
                 (150.0, 250.0), (250.0, 250.0), (180.0, 300.0))
        sc = small_scenario(user_positions=users)
        topo = build_topology(sc, rng(4, "pos"))
        placement = place_server(sc, topo, rng(4, "placement"))
        direct = min_sum_dist(np.asarray(users), 100.0)
        assert placement.x == direct.x
        assert placement.y == direct.y

    def test_positions_within_area(self):
        sc = small_scenario(area=Area(200.0, 50.0))
        topo = build_topology(sc, rng(5, "pos"))
        assert topo.user_xy[:, 0].max() <= 200.0
        assert topo.user_xy[:, 1].max() <= 50.0


class TestRunScenario:
    def test_zero_rounds(self):
        result = run_scenario(small_scenario(fl=FlConfig(num_users=6, fraction=0.5,
                                                         max_rounds=0), repeats=1))
        assert result.common_rounds == 0
        assert result.repeats[0].metrics == []
        assert result.halt_reasons == ["max_rounds"]

    def test_bitwise_deterministic(self):
        sc = small_scenario()
        a = run_scenario(sc)
        b = run_scenario(sc)
        for ra, rb in zip(a.repeats, b.repeats):
            assert_same_metrics(ra.metrics, rb.metrics)
            assert ra.halt_reason == rb.halt_reason
        assert np.array_equal(a.mean("cum_uav_energy"), b.mean("cum_uav_energy"))

    def test_parallel_jobs_match_serial(self):
        sc = small_scenario(repeats=3)
        serial = run_scenario(sc, jobs=1)
        parallel = run_scenario(sc, jobs=3)
        assert len(serial.repeats) == len(parallel.repeats) == 3
        for ra, rb in zip(serial.repeats, parallel.repeats):
            assert_same_metrics(ra.metrics, rb.metrics)

    def test_metric_sanity(self):
        result = run_scenario(small_scenario())
        for rep in result.repeats:
            cum = 0.0
            for m in rep.metrics:
                assert m.duration > 0
                assert 0.0 <= m.test_acc <= 1.0
                assert m.uav_energy > 0
                cum += m.uav_energy
                assert m.cum_uav_energy == pytest.approx(cum, rel=1e-12)
            rounds = [m.round for m in rep.metrics]
            assert rounds == list(range(1, len(rounds) + 1))

    def test_paired_seed_energy_dominance(self):
        base = small_scenario(train=False, repeats=4,
                              fl=FlConfig(num_users=20, fraction=0.1, max_rounds=10))
        opt = run_scenario(base)
        rand = run_scenario(replace(base, placement_scheme="random"))
        assert np.all(opt.mean("cum_uav_energy") < rand.mean("cum_uav_energy"))
        for ro, rr in zip(opt.repeats, rand.repeats):
            assert ro.metrics[-1].cum_uav_energy < rr.metrics[-1].cum_uav_energy

    def test_budget_halts_without_counting_partial_round(self):
        probe = run_scenario(small_scenario(train=False, repeats=1))
        per_round = probe.repeats[0].metrics[0].uav_energy
        budget = 2.5 * per_round
        result = run_scenario(small_scenario(train=False, repeats=1,
                                             energy_budget=budget))
        rep = result.repeats[0]
        assert rep.halt_reason == "budget"
        assert rep.metrics[-1].cum_uav_energy <= budget
        assert len(rep.metrics) < 4

    def test_budget_below_first_round_yields_zero_rounds(self):
        result = run_scenario(small_scenario(train=False, repeats=1,
                                             energy_budget=1e-9))
        assert result.repeats[0].metrics == []
        assert result.halt_reasons == ["budget"]

    def test_eval_stride(self):
        result = run_scenario(small_scenario(repeats=1, eval_stride=2))
        metrics = result.repeats[0].metrics
        assert math.isnan(metrics[0].test_acc)
        assert not math.isnan(metrics[1].test_acc)

    def test_broadcast_all_slows_the_downlink(self):
        selective = run_scenario(small_scenario(train=False, repeats=1))
        everyone = run_scenario(small_scenario(train=False, repeats=1,
                                               broadcast_all=True))
        for a, b in zip(selective.repeats[0].metrics, everyone.repeats[0].metrics):
            assert b.duration >= a.duration

    def test_shape_source_is_timing_only(self):
        with pytest.raises(ValueError):
            small_scenario(source=ShapeSource(num_samples=600))
        sc = small_scenario(source=ShapeSource(num_samples=600, input_dim=784,
                                               num_classes=10),
                            train=False, repeats=1)
        result = run_scenario(sc)
        assert result.common_rounds == 4
        assert all(math.isnan(m.test_acc) for m in result.repeats[0].metrics)

    def test_timing_only_payload_and_round_timing(self):
        # logistic on 784/10 -> 7850 params x 32 bits, all nodes co-located
        # under the server: every timing term is hand-computable up to the
        # seeded CPU frequency in [1.8, 2.0] GHz
        sc = small_scenario(source=ShapeSource(num_samples=600, input_dim=784,
                                               num_classes=10),
                            train=False, repeats=1,
                            placement_scheme="fixed", fixed_position=(0.0, 0.0),
                            user_positions=tuple((0.0, 0.0) for _ in range(6)))
        rep = run_repeat(sc, 0)
        t_down = 251200 / (1e6 * math.log2(11))
        t_up = 251200 / ((1e6 / 3) * math.log2(101))
        comp_cycles = 1 * 100 * 6280 * 10  # epochs x shard x bits x cycles
        lo = t_down + t_up + comp_cycles / 2.0e9
        hi = t_down + t_up + comp_cycles / 1.8e9
        for m in rep.metrics:
            assert lo <= m.duration <= hi
            expected_energy = 100.0 * m.duration + 0.01 * t_down
            assert m.uav_energy == pytest.approx(expected_energy, rel=1e-12)

    def test_aerial_clients_pay_hover_energy(self):
        sc = small_scenario(form="a2g", train=False, repeats=1)
        rep = run_repeat(sc, 0)
        e_tx = repeat_arrays(sc)[1]
        for u in range(sc.fl.num_users):
            spent = 0.0
            for m in rep.metrics:  # tx, no compute, hover for the whole round
                if u in m.selected:
                    spent = spent + e_tx[u] + 0.0 + sc.uav.propulsion_power * m.duration
            assert rep.ledger.total(f"user:{u}") == spent

    def test_initial_flight_energy_counts_toward_budget(self):
        probe = run_scenario(small_scenario(train=False, repeats=1))
        full = probe.repeats[0].metrics[-1].cum_uav_energy
        flight = 0.6 * full
        charged = run_scenario(small_scenario(train=False, repeats=1,
                                              energy_budget=full,
                                              initial_flight_energy=flight))
        rep = charged.repeats[0]
        assert rep.halt_reason == "budget"
        assert len(rep.metrics) < len(probe.repeats[0].metrics)
        assert rep.ledger.total("uav") <= full

    def test_per_user_budget_entity(self):
        sc = small_scenario(train=False, repeats=1)
        user = run_repeat(sc, 0).metrics[0].selected[0]
        spent = float(repeat_arrays(sc)[1][user])
        capped = run_scenario(replace(sc, budget_entity=f"user:{user}",
                                      energy_budget=spent / 2))
        assert capped.repeats[0].halt_reason == "budget"
        assert len(capped.repeats[0].metrics) == 0

    def test_user_compute_energy_opt_in(self):
        off_sc = small_scenario(train=False, repeats=1)
        on_sc = replace(off_sc, include_user_compute_energy=True)
        off, on = run_repeat(off_sc, 0), run_repeat(on_sc, 0)
        assert not repeat_arrays(off_sc)[2].any()
        assert repeat_arrays(on_sc)[2].all()
        selected = {u for m in off.metrics for u in m.selected}
        for u in range(6):
            spent_off, spent_on = off.ledger.total(f"user:{u}"), on.ledger.total(f"user:{u}")
            assert spent_on > spent_off if u in selected else spent_on == spent_off == 0.0

    def test_mean_best_accuracy_reported(self):
        result = run_scenario(small_scenario())
        assert 0.0 <= result.mean_best_accuracy <= 1.0

    def test_server_tx_power_sets_downlink_rate_and_energy(self):
        low = run_repeat(small_scenario(train=False), 0)
        high = run_repeat(small_scenario(train=False, uav=UavProfile(tx_power=1.0)), 0)
        for a, b in zip(low.metrics, high.metrics):
            tx_low = a.uav_energy - 100.0 * a.duration
            tx_high = b.uav_energy - 100.0 * b.duration
            t_down_low, t_down_high = tx_low / 0.01, tx_high / 1.0
            assert t_down_high < t_down_low  # a faster downlink
            assert tx_high != tx_low
        assert all(b.duration < a.duration for a, b in zip(low.metrics, high.metrics))

    def test_budget_total_tracks_the_budget_entity(self):
        uav = run_repeat(small_scenario(train=False, initial_flight_energy=0.5), 0)
        assert [m.budget_total for m in uav.metrics] == [m.cum_uav_energy
                                                         for m in uav.metrics]
        sc = small_scenario(train=False, budget_entity="user:2")
        user, e_tx = run_repeat(sc, 0), repeat_arrays(sc)[1]
        running = np.cumsum([e_tx[2] if 2 in m.selected else 0.0 for m in user.metrics])
        assert running[-1] > 0
        assert [m.budget_total for m in user.metrics] == running.tolist()
        assert user.metrics[-1].budget_total == user.ledger.total("user:2")


class TestValidation:
    def test_bad_form(self):
        with pytest.raises(ValueError):
            small_scenario(form="g2g")

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            small_scenario(placement_scheme="kmeans")

    def test_bad_repeats(self):
        with pytest.raises(ValueError):
            small_scenario(repeats=0)

    @pytest.mark.parametrize("entity", ["uva", "user:6", "user:-1", "user:x", "user", ""])
    def test_unknown_budget_entity(self, entity):
        with pytest.raises(ValueError, match="unknown energy entity"):
            small_scenario(budget_entity=entity, energy_budget=5.0)

    def test_nan_energy_budget_rejected(self):
        with pytest.raises(ValueError, match="energy_budget must be positive"):
            small_scenario(energy_budget=math.nan)
        small_scenario(energy_budget=math.inf)  # no budget

    def test_known_budget_entities(self):
        small_scenario(budget_entity="uav")
        small_scenario(budget_entity="user:0")
        small_scenario(budget_entity="user:5")

    def test_per_client_compute_checks(self):
        with pytest.raises(ValueError, match="cycles_per_bit"):
            small_scenario(cycles_per_bit=0)
        for cpu_range in [(-1.0, 2e9), (0.0, 2e9), (-1.0, -1.0), (2e9, 1e9)]:
            with pytest.raises(ValueError, match="cpu_freq_range"):
                small_scenario(cpu_freq_range=cpu_range)
        small_scenario(cpu_freq_range=(2e9, 2e9))

    @pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.inf)])
    def test_fixed_position_must_be_finite(self, position):
        with pytest.raises(ValueError, match="fixed_position must be finite"):
            small_scenario(placement_scheme="fixed", fixed_position=position)

    @pytest.mark.parametrize("positions", [((0.0, 0.0),) * 5,
                                           ((math.nan, 0.0),) + ((1.0, 1.0),) * 5])
    def test_user_positions_checked_when_built(self, positions):
        with pytest.raises(ValueError, match="user_positions must hold one finite"):
            small_scenario(user_positions=positions)

    @pytest.mark.parametrize("cpu_range", [(1e9, math.inf), (math.inf, math.inf)])
    def test_cpu_freq_range_must_be_finite(self, cpu_range):
        with pytest.raises(ValueError, match="cpu_freq_range must satisfy"):
            small_scenario(cpu_freq_range=cpu_range)

    def test_model_architecture_checked_with_the_scenario(self):
        with pytest.raises(ValueError, match="unknown model kind 'mpl'"):
            small_scenario(model_kind="mpl")
        with pytest.raises(ValueError, match="hidden_dim"):
            small_scenario(model_kind="mlp", hidden_dim=0)
        small_scenario(model_kind="logistic", hidden_dim=0)  # no hidden layer to size

    @pytest.mark.parametrize("field, bad", [
        ("initial_flight_energy", -3.0), ("ground_height", -10.0), ("kappa", -1.0),
        ("aerial_fraction", 1.5), ("aerial_fraction", -1.0),
    ] + [(field, bad) for field in ("initial_flight_energy", "ground_height", "kappa",
                                    "aerial_fraction") for bad in (math.nan, math.inf)])
    def test_physics_out_of_range(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be"):
            small_scenario(**{field: bad})

    def test_physics_range_ends_are_legal(self):
        small_scenario(initial_flight_energy=0.0, ground_height=0.0, kappa=0.0,
                       aerial_fraction=0.0)
        small_scenario(aerial_fraction=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(num_classes=1), "at least 2 classes"),
        (dict(samples_per_class=0), "sample per class"),
        (dict(test_samples_per_class=0), "sample per class"),
        (dict(input_dim=0), "input_dim >= 1"),
        (dict(spread=0.0), "positive spread"),
        (dict(spread=math.nan), "positive spread"),
    ])
    def test_blob_source_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            BlobSource(**kwargs)

    def test_shape_source_checks(self):
        with pytest.raises(ValueError, match="input_dim >= 1"):
            ShapeSource(input_dim=0)
        with pytest.raises(ValueError, match="2 <= classes <= num_samples"):
            ShapeSource(num_classes=1)
        ShapeSource(num_samples=2, input_dim=1, num_classes=2)


class TestDerivedCorpus:
    """A loaded corpus's figures derive from its arrays and match its source."""

    @settings(max_examples=30, deadline=None)
    @given(classes=st.integers(2, 12), dim=st.integers(1, 40),
           per_class=st.integers(1, 4), extra=st.integers(0, 60))
    def test_figures_match_the_source(self, classes, dim, per_class, extra):
        blobs = BlobSource(num_classes=classes, samples_per_class=per_class,
                           test_samples_per_class=1, input_dim=dim, spread=0.1)
        shape = ShapeSource(num_samples=classes + extra, input_dim=dim, num_classes=classes)
        for source in (blobs, shape):
            train, _ = load_source(source, seed=0)
            assert (train.input_dim, train.num_classes) == (dim, classes)
            assert train.bits_per_sample == (dim + 1) * 8
            assert type(train.bits_per_sample) is int  # keeps the cycle product exact
        assert train.features.shape == (classes + extra, dim)
        assert train.features.strides == (0, 0)  # the shape corpus holds no features

    @given(classes=st.integers(2, 12), samples=st.integers(-5, 11))
    def test_shape_source_needs_a_sample_per_class(self, classes, samples):
        assume(samples < classes)
        with pytest.raises(ValueError, match="classes <= num_samples"):
            ShapeSource(num_samples=samples, input_dim=4, num_classes=classes)


def reference_repeat(sc, rep):
    """Recompute a repeat's rounds and ledger totals from its `selected` ids.

    Uses only the scalar models (the `oracles` references, `tx_time` and
    `user_compute_energy`), one client at a time, on the same seeded
    geometry, CPU draws and shards as `run_repeat`. Returns the (duration,
    uav_energy, cum_uav_energy) of each kept round, the ledger's final "uav"
    total and the per-user totals.
    """
    seed, fl, ch = sc.master_seed, sc.fl, sc.channel
    topo = build_topology(sc, rng(seed, rep.repeat, "positions"))
    topo.placement = rep.placement
    vert = topo.vertical_offsets().tolist()
    horiz = topo.horizontal_distances().tolist()
    cpu = rng(seed, rep.repeat, "cpu").uniform(*sc.cpu_freq_range,
                                                size=fl.num_users).tolist()
    train, _ = load_source(sc.source, child_seed(seed, "data"))
    indices, offsets = partition(train, fl.num_users, scheme=sc.partition_scheme,
                                 shards_per_user=sc.shards_per_user,
                                 seed=child_seed(seed, rep.repeat, "partition"))
    shards = np.split(indices, offsets[1:-1])
    payload = (784 + 1) * 10 * ch.payload_bits_per_param  # logistic, 784 -> 10
    epochs, bits = fl.hyper.local_epochs, train.bits_per_sample

    cohorts = [m.selected for m in rep.metrics]
    if rep.halt_reason == "budget":  # the round the ledger refused
        gen = rng(child_seed(seed, rep.repeat), len(cohorts), "select")
        cohorts.append(tuple(select_clients(fl.num_users, fl.fraction, gen).tolist()))

    uav, users, rows = sc.initial_flight_energy, [0.0] * fl.num_users, []
    for selected in cohorts:
        kept = uav, list(users)
        b_up = per_client_bandwidth(ch, len(selected))
        per_client = []
        for u in selected:
            t_up = tx_time(payload, rate_direct(b_up, ch.user_tx_power, vert[u], horiz[u],
                                                ch.ref_gain, ch.noise))
            t_comp = user_compute_time(len(shards[u]), bits, sc.cycles_per_bit,
                                       cpu[u], epochs)
            per_client.append((t_comp, t_up))
        recipients = range(fl.num_users) if sc.broadcast_all else selected
        t_down = tx_time(payload, min(
            rate_direct(ch.uav_downlink_bandwidth, sc.uav.tx_power, vert[u], horiz[u],
                        ch.ref_gain, ch.noise) for u in recipients))
        duration = round_duration(t_down, per_client)
        energy = uav_round_energy(duration, t_down, sc.uav.propulsion_power,
                                  sc.uav.tx_power)
        uav += energy
        for u, (_, t_up) in zip(selected, per_client):
            tx = ch.user_tx_power * t_up
            comp = (user_compute_energy(cpu[u], epochs * len(shards[u]) * bits
                                        * sc.cycles_per_bit, sc.kappa)
                    if sc.include_user_compute_energy else 0.0)
            hover = sc.uav.propulsion_power * duration if topo.user_alt[u] > 0 else 0.0
            users[u] = users[u] + tx + comp + hover
        rows.append((duration, energy, uav))

    if rep.halt_reason == "budget":
        rows.pop()
        uav, users = kept
    return rows, uav, users


class TestRoundLoopReference:
    @pytest.mark.parametrize("compute", [False, True])
    @pytest.mark.parametrize("broadcast_all", [False, True])
    @pytest.mark.parametrize("form", ["g2a", "a2g", "a2a", "mixed"])
    def test_rounds_and_ledger_match_scalar_models(self, form, broadcast_all, compute):
        sc = Scenario(fl=FlConfig(num_users=12, fraction=0.25,
                                  hyper=Hyperparams(local_epochs=2), max_rounds=6),
                      source=ShapeSource(num_samples=1200, input_dim=784, num_classes=10),
                      train=False, repeats=2, master_seed=3, form=form,
                      broadcast_all=broadcast_all, include_user_compute_energy=compute,
                      initial_flight_energy=0.7)
        unbounded = run_scenario(sc)
        # halt on the fifth round, so the ledger refuses one round
        budget = unbounded.repeats[0].metrics[3].cum_uav_energy
        halted = run_scenario(replace(sc, energy_budget=budget))
        assert halted.halt_reasons[0] == "budget"
        for rep in unbounded.repeats + halted.repeats:
            rows, uav, users = reference_repeat(sc, rep)
            assert [(m.duration, m.uav_energy, m.cum_uav_energy)
                    for m in rep.metrics] == rows
            assert rep.ledger.total("uav") == uav
            assert [rep.ledger.total(f"user:{u}") for u in range(12)] == users


class TestPerUserArrays:
    """Every entry of the per-user arrays equals the scalar models, at a scale
    where a vectorised log2 or square would differ in the last bit."""

    @pytest.mark.parametrize("override, compute", [(None, False), (2.5e4, True)])
    @pytest.mark.parametrize("form", FORMS)
    def test_every_entry_matches_scalar_models(self, form, override, compute):
        n, repeat, payload = 20_000, 1, 251_200
        sc = Scenario(fl=FlConfig(num_users=n, fraction=0.05,
                                  hyper=Hyperparams(local_epochs=3)),
                      source=ShapeSource(num_samples=70_001, input_dim=784), train=False,
                      partition_scheme="iid", form=form, master_seed=11,
                      channel=ChannelParams(uplink_bandwidth_override=override),
                      include_user_compute_energy=compute)
        topo = build_topology(sc, rng(11, repeat, "positions"))
        topo.placement = place_server(sc, topo, rng(11, repeat, "placement"))
        train, _ = load_source(sc.source, 0)
        indices, offsets = partition(train, n, scheme="iid", seed=7)
        t_client, e_tx, e_comp, t_recv = per_user_arrays(
            sc, repeat, topo, np.diff(offsets), payload, train.bits_per_sample)
        shards = np.split(indices, offsets[1:-1])

        ch, bits, epochs = sc.channel, train.bits_per_sample, sc.fl.hyper.local_epochs
        b_up = per_client_bandwidth(ch, cohort_size(n, sc.fl.fraction))
        cpu = rng(11, repeat, "cpu").uniform(*sc.cpu_freq_range, size=n).tolist()
        expected = ([], [], [], [])
        for u, (vert, horiz) in enumerate(zip(topo.vertical_offsets().tolist(),
                                              topo.horizontal_distances().tolist())):
            t_up = tx_time(payload, rate_direct(b_up, ch.user_tx_power, vert, horiz,
                                                ch.ref_gain, ch.noise))
            expected[0].append(user_compute_time(len(shards[u]), bits, sc.cycles_per_bit,
                                                 cpu[u], epochs) + t_up)
            expected[1].append(ch.user_tx_power * t_up)
            expected[2].append(user_compute_energy(cpu[u], epochs * len(shards[u]) * bits
                                                   * sc.cycles_per_bit, sc.kappa)
                               if compute else 0.0)
            expected[3].append(tx_time(payload, rate_direct(
                ch.uav_downlink_bandwidth, sc.uav.tx_power, vert, horiz, ch.ref_gain,
                ch.noise)))
        assert t_client.tolist() == expected[0]
        assert e_tx.tolist() == expected[1]
        assert e_comp.tolist() == expected[2]
        assert t_recv.tolist() == expected[3]

    def test_coincident_user_raises_before_any_round(self, monkeypatch):
        # a2a: the sum-distance optimum of three collinear users on the
        # server's layer is the middle user, so its link has zero length
        sc = small_scenario(form="a2a", user_positions=((0, 0), (50, 0), (100, 0)),
                            fl=FlConfig(num_users=3, fraction=1.0, max_rounds=3))
        monkeypatch.setattr(scenario_module, "select_clients",
                            lambda *args: pytest.fail("a round started"))
        for repeat in (0, 1):
            with pytest.raises(ValueError, match=rf"coincide: user 1 .* repeat {repeat}$"):
                run_repeat(sc, repeat)


class TestBudgetsReadOffOneRun:
    """A run under budget b keeps exactly the rounds of the run under the
    largest budget whose budget-entity total is at most b, so every budget's
    best accuracy can be read off that one run."""

    @settings(max_examples=40, deadline=None)
    @given(form=st.sampled_from(FORMS), user=st.none() | st.integers(0, 5),
           eval_stride=st.integers(1, 3), flight=st.sampled_from([0.0, 0.4]),
           compute=st.booleans(), seed=st.integers(0, 3),
           picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 1.5])),
                          min_size=1, max_size=3))
    def test_matches_a_run_per_budget(self, form, user, eval_stride, flight, compute,
                                      seed, picks):
        sc = small_scenario(form=form, eval_stride=eval_stride,
                            budget_entity="uav" if user is None else f"user:{user}",
                            initial_flight_energy=flight,
                            include_user_compute_energy=compute, master_seed=seed)
        # budgets on, below and above the totals the rounds reach
        probe = run_scenario(replace(sc, train=False))
        totals = sorted(m.budget_total for rep in probe.repeats for m in rep.metrics)
        grid = [max(totals[int(p * (len(totals) - 1))] * scale, 1e-9) for p, scale in picks]
        largest = run_scenario(replace(sc, energy_budget=max(grid)))
        for budget in grid:
            read = largest.mean_best_accuracy_within(budget)
            direct = run_scenario(replace(sc, energy_budget=budget)).mean_best_accuracy
            assert read == direct or (math.isnan(read) and math.isnan(direct))


class TestBudgetHaltTotals:
    """A budget-halted repeat's ledger totals are those of its last kept
    round, bit for bit: the refused round leaves no trace."""

    @settings(max_examples=40, deadline=None)
    @given(form=st.sampled_from(FORMS), user=st.none() | st.integers(0, 5),
           flight=st.sampled_from([0.0, 0.7]), compute=st.booleans(),
           seed=st.integers(0, 5), pick=st.floats(0.0, 1.0))
    # budgets where adding the refused round and subtracting it again is inexact
    @example(form="g2a", user=None, flight=0.0, compute=False, seed=2, pick=0.0)
    @example(form="g2a", user=2, flight=0.0, compute=False, seed=1, pick=1.0)
    def test_totals_equal_the_last_kept_round(self, form, user, flight, compute, seed, pick):
        sc = small_scenario(form=form, train=False, initial_flight_energy=flight,
                            budget_entity="uav" if user is None else f"user:{user}",
                            include_user_compute_energy=compute, master_seed=seed)
        totals = [m.budget_total for m in run_repeat(sc, 0).metrics[:-1]
                  if m.budget_total > 0]
        assume(totals)
        rep = run_repeat(replace(sc, energy_budget=totals[int(pick * (len(totals) - 1))]), 0)
        assume(rep.halt_reason == "budget")
        assert rep.ledger.total("uav") == rep.metrics[-1].cum_uav_energy
        assert rep.ledger.total(sc.budget_entity) == rep.metrics[-1].budget_total


def ledger_totals(rep, num_users):
    return [rep.ledger.total(e) for e in ["uav"] + [f"user:{u}" for u in range(num_users)]]


def assert_same_repeats(got, want, num_users):
    """Bit for bit: metrics (NaN-safe), halt, placement and ledger totals."""
    assert [rep.repeat for rep in got] == [rep.repeat for rep in want]
    for a, b in zip(got, want):
        assert repr(a.metrics) == repr(b.metrics)
        assert a.halt_reason == b.halt_reason
        assert a.placement == b.placement
        assert ledger_totals(a, num_users) == ledger_totals(b, num_users)


class TestLockstepGroups:
    """A repeat trained with others in a lockstep group, serially or through
    the pool, equals the repeat run alone, and no lockstep call holds more
    than LANE_CEILING lanes unless one repeat's cohort alone does."""

    @settings(max_examples=30, deadline=None)
    @given(form=st.sampled_from(FORMS), partition_scheme=st.sampled_from(["iid", "sharded"]),
           kind=st.sampled_from(["logistic", "mlp"]), eval_stride=st.sampled_from([1, 3]),
           # cohorts of 3 (five repeats to a group) and of 18 (one repeat to a group)
           users=st.sampled_from([(6, 0.5), (20, 0.9)]), repeats=st.integers(1, 7),
           pick=st.floats(0.3, 1.0), seed=st.integers(0, 3))
    def test_group_members_equal_lone_repeats(self, form, partition_scheme, kind,
                                              eval_stride, users, repeats, pick, seed):
        num_users, fraction = users
        sc = small_scenario(
            fl=FlConfig(num_users=num_users, fraction=fraction,
                        hyper=Hyperparams(local_epochs=1, batch_size=10), max_rounds=7),
            source=BlobSource(num_classes=3, samples_per_class=40,
                              test_samples_per_class=10, input_dim=4, spread=0.1),
            form=form, partition_scheme=partition_scheme, model_kind=kind, hidden_dim=3,
            eval_stride=eval_stride, repeats=repeats, master_seed=seed)
        # a budget under which the repeats halt at different rounds, or not at all
        probe = run_scenario(replace(sc, train=False))
        sc = replace(sc, energy_budget=pick * max(rep.metrics[-1].budget_total
                                                  for rep in probe.repeats))
        alone = [run_repeat(sc, r) for r in range(repeats)]
        for jobs in (1, 2):
            clear_stores()  # so the groups train, not read what the lone repeats trained
            assert_same_repeats(run_scenario(sc, jobs=jobs).repeats, alone, num_users)

    @pytest.mark.parametrize("num_users, fraction, repeats, calls_per_round", [
        (100, 0.02, 20, 3),  # cohorts of 2: groups of 7, 7 and 6 repeats
        (70, 0.1, 5, 3),     # cohorts of 7: groups of 2, 2 and 1
        (20, 0.9, 3, 3),     # a cohort of 18 exceeds the ceiling alone
    ])
    def test_lockstep_calls_within_lane_ceiling(self, monkeypatch, num_users, fraction,
                                                repeats, calls_per_round):
        import agifl.fedavg as fedavg

        real_train, lanes = fedavg.train_cohort, []

        def recording_train(params, features, labels, lanes_, *args):
            lanes.append(len(lanes_))
            return real_train(params, features, labels, lanes_, *args)

        monkeypatch.setattr(fedavg, "train_cohort", recording_train)
        sc = small_scenario(fl=FlConfig(num_users=num_users, fraction=fraction,
                                        hyper=Hyperparams(local_epochs=1), max_rounds=2),
                            source=BlobSource(num_classes=3, samples_per_class=100,
                                              test_samples_per_class=5, input_dim=4),
                            repeats=repeats)
        result = run_scenario(sc)
        cohort = cohort_size(num_users, fraction)
        assert len(lanes) == 2 * calls_per_round
        assert max(lanes) <= max(scenario_module.LANE_CEILING, cohort)
        assert sum(lanes) == sum(len(m.selected) for rep in result.repeats
                                 for m in rep.metrics)

    @pytest.mark.parametrize("num_users, fraction, repeats, jobs, sizes", [
        (100, 0.02, 20, 1, [7, 7, 6]),  # the case study's cohorts of 2
        (100, 0.02, 20, 2, [5, 5, 5, 5]),  # 3 rounded up to a multiple of 2
        (100, 0.02, 20, 3, [7, 7, 6]),
        (70, 0.1, 20, 1, [2] * 10),  # cohorts of 7
        (70, 0.1, 20, 2, [2] * 10),  # already a multiple of the processes
        (20, 0.9, 5, 3, [1] * 5),  # never an empty group
        (100, 0.02, 3, 8, [1, 1, 1]),  # no more processes than repeats
    ])
    def test_groups_fill_the_processes(self, num_users, fraction, repeats, jobs, sizes):
        sc = small_scenario(fl=FlConfig(num_users=num_users, fraction=fraction),
                            repeats=repeats)
        groups = scenario_module._groups(sc, jobs)
        assert [len(group) for group in groups] == sizes
        assert [r for group in groups for r in group] == list(range(repeats))


def clear_stores():
    scenario_module._cohorts.cache_clear()
    scenario_module._trajectories.cache_clear()


@pytest.fixture
def work(monkeypatch):
    """Counts of cohort draws, trained repeat-rounds and evaluations."""
    counts = {"select_clients": 0, "trained": 0, "evaluate": 0}
    select_clients_, run_round_, evaluate_ = (scenario_module.select_clients,
                                              scenario_module.run_round,
                                              scenario_module.evaluate)

    def counting_select(*args):
        counts["select_clients"] += 1
        return select_clients_(*args)

    def counting_round(params, *args):
        counts["trained"] += len(params)
        return run_round_(params, *args)

    def counting_evaluate(*args):
        counts["evaluate"] += 1
        return evaluate_(*args)

    monkeypatch.setattr(scenario_module, "select_clients", counting_select)
    monkeypatch.setattr(scenario_module, "run_round", counting_round)
    monkeypatch.setattr(scenario_module, "evaluate", counting_evaluate)
    return counts


def work_of(run, counts):
    """The result of `run()` and the work it counted."""
    before = dict(counts)
    result = run()
    return result, {key: counts[key] - before[key] for key in counts}


STORE_RUN = st.fixed_dictionaries({
    "placement_scheme": st.sampled_from(PLACEMENT_SCHEMES),
    "user": st.none() | st.integers(0, 5),  # the budget entity: the server or a user
    "pick": st.none() | st.floats(0.2, 1.0),  # the budget, a share of the largest total
    "repeats": st.integers(1, 4),
    "max_rounds": st.integers(0, 6),
    "train": st.booleans(),
    "eval_stride": st.sampled_from([1, 2]),
    "jobs": st.sampled_from([1, 2]),
    "learning_rate": st.sampled_from([0.01, 0.05]),  # a keyed field: nothing is shared
})


class TestFederationStores:
    """Every run of a federation reads the cohorts drawn and the rounds
    trained by earlier runs in the process, draws and trains only beyond
    them, and equals the same run from cold stores bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 3), kind=st.sampled_from(["logistic", "mlp"]),
           runs=st.lists(STORE_RUN, min_size=2, max_size=4))
    # a later run needs more rounds, and more repeats, than the stores hold
    @example(seed=0, kind="logistic", runs=[
        dict(placement_scheme="random", user=None, pick=0.5, repeats=2, max_rounds=3,
             train=True, eval_stride=1, jobs=1, learning_rate=0.01),
        dict(placement_scheme="min_sum_dist", user=None, pick=None, repeats=3,
             max_rounds=6, train=True, eval_stride=1, jobs=1, learning_rate=0.01)])
    # a keyed field changes between two training runs
    @example(seed=1, kind="mlp", runs=[
        dict(placement_scheme="min_sum_dist", user=None, pick=None, repeats=2, max_rounds=4,
             train=True, eval_stride=1, jobs=1, learning_rate=lr) for lr in (0.01, 0.05)])
    def test_each_run_equals_a_run_from_cold_stores(self, seed, kind, runs):
        base = small_scenario(
            fl=FlConfig(num_users=6, fraction=0.5,
                        hyper=Hyperparams(local_epochs=1, batch_size=10), max_rounds=6),
            model_kind=kind, hidden_dim=3, master_seed=seed)
        clear_stores()
        probe = run_scenario(replace(base, train=False, repeats=4))
        scenarios = []
        for run in runs:
            entity = "uav" if run["user"] is None else f"user:{run['user']}"
            largest = max(rep.ledger.total(entity) for rep in probe.repeats)
            scenarios.append(replace(
                base, placement_scheme=run["placement_scheme"], budget_entity=entity,
                energy_budget=(math.inf if run["pick"] is None
                               else max(run["pick"] * largest, 1e-9)),
                repeats=run["repeats"], train=run["train"], eval_stride=run["eval_stride"],
                fl=replace(base.fl, max_rounds=run["max_rounds"],
                           hyper=replace(base.fl.hyper, learning_rate=run["learning_rate"]))))
        cold = []
        for sc in scenarios:
            clear_stores()
            cold.append(run_scenario(sc).repeats)
        clear_stores()
        for sc, run, want in zip(scenarios, runs, cold):
            assert_same_repeats(run_scenario(sc, jobs=run["jobs"]).repeats, want, 6)

    def test_compare_placement_draws_and_trains_once(self, work, tmp_path):
        from agifl import cli

        config = Path(__file__).resolve().parents[1] / "configs" / "case_study.ini"
        assert cli.main(["compare-placement", str(config), "--seed", "0",
                         "--out", str(tmp_path)]) == 0
        # panel A draws 20 repeats x 100 rounds once for both schemes; panel
        # B's random repeats keep at most the rounds min_sum_dist trained
        assert work == {"select_clients": 2000, "trained": 319, "evaluate": 319}

    def test_continuation_draws_and_trains_only_new_rounds(self, work):
        sc = small_scenario(repeats=2, fl=replace(small_scenario().fl, max_rounds=3))
        work_of(lambda: run_scenario(sc), work)
        longer = replace(sc, placement_scheme="random", repeats=3,
                         fl=replace(sc.fl, max_rounds=5))
        warm, warm_work = work_of(lambda: run_scenario(longer), work)
        # two more rounds for repeats 0 and 1, five for the new repeat 2
        assert warm_work == {"select_clients": 9, "trained": 9, "evaluate": 9}
        clear_stores()
        cold, cold_work = work_of(lambda: run_scenario(longer), work)
        assert cold_work == {"select_clients": 15, "trained": 15, "evaluate": 15}
        assert_same_repeats(warm.repeats, cold.repeats, 6)

    def test_pool_workers_hand_back_their_store_entries(self):
        sc = small_scenario(repeats=4)
        assert len(scenario_module._groups(sc, 2)) == 2
        stores = []
        for jobs in (1, 2):
            clear_stores()
            result = run_scenario(sc, jobs=jobs)
            stores.append((scenario_module._cohorts(sc.master_seed, sc.fl.num_users,
                                                    sc.fl.fraction),
                           scenario_module._trajectories(scenario_module._federation(sc))))
        (cohorts, trajs), (pooled_cohorts, pooled_trajs) = stores
        assert sorted(pooled_cohorts) == sorted(cohorts) == list(range(4))
        for r in cohorts:
            assert len(pooled_cohorts[r]) == len(cohorts[r]) == sc.fl.max_rounds
            assert all(np.array_equal(p, c) for p, c in zip(pooled_cohorts[r], cohorts[r]))
        # a stored cohort is read-only, also where a pool worker handed it
        # back: unpickled arrays come back writeable
        stored = [c for store in (cohorts, pooled_cohorts) for drawn in store.values()
                  for c in drawn]
        for cohort in stored + [m.selected for rep in result.repeats for m in rep.metrics]:
            assert not cohort.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cohort[0] = -1
        assert sorted(pooled_trajs) == sorted(trajs) == list(range(4))
        for r in trajs:
            assert np.array_equal(pooled_trajs[r].params, trajs[r].params)
            assert pooled_trajs[r].tests == trajs[r].tests

    def test_stored_cohorts_keep_at_most_16_bytes_per_id(self):
        # an int64 array keeps 8 B per id; a tuple of Python ints kept about 40
        sc = Scenario(fl=FlConfig(num_users=5000, fraction=0.2, max_rounds=50),
                      source=ShapeSource(), train=False, repeats=2, partition_scheme="iid")
        load_corpus(sc.source, sc.master_seed)  # the corpus cache is not the run's
        tracemalloc.start()
        try:
            result = run_scenario(sc)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        ids = sum(len(m.selected) for rep in result.repeats for m in rep.metrics)
        assert ids == 2 * 50 * 1000
        assert kept <= 16 * ids

    @pytest.mark.parametrize("change, redraws", [
        (lambda sc: replace(sc, fl=replace(sc.fl, hyper=replace(sc.fl.hyper,
                                                                learning_rate=0.02))), False),
        (lambda sc: replace(sc, partition_scheme="sharded", shards_per_user=1), False),
        (lambda sc: replace(sc, eval_stride=2), False),
        (lambda sc: replace(sc, fl=replace(sc.fl, fraction=1 / 3)), True),
        (lambda sc: replace(sc, master_seed=sc.master_seed + 1), True),
    ], ids=["learning_rate", "partition_scheme", "eval_stride", "fraction", "master_seed"])
    def test_a_keyed_field_reuses_nothing(self, work, change, redraws):
        sc = small_scenario()
        work_of(lambda: run_scenario(sc), work)
        warm, warm_work = work_of(lambda: run_scenario(change(sc)), work)
        clear_stores()
        cold, cold_work = work_of(lambda: run_scenario(change(sc)), work)
        assert warm_work["trained"] == cold_work["trained"] > 0
        assert (warm_work["select_clients"] == cold_work["select_clients"]) == redraws
        assert_same_repeats(warm.repeats, cold.repeats, 6)

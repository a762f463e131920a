import copy
import enum
import json
import math
from collections import OrderedDict, defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibnsim.cli import main
from ibnsim.compilation import BlockReason
from ibnsim.errors import ScenarioError, ScenarioParseError, ScenarioValidationError
from ibnsim.export import export_topology
from ibnsim.intents import ConnectivityIntent, IntentNode, RemoteIntent
from ibnsim.multidomain import Delegate
from ibnsim.network import DEFAULT_MODE_TABLE, NodeId
from ibnsim.scenario import TrafficConfig, _parse_node_ref, _require, parse_scenario
from ibnsim.simulation import Simulation

from .builders import scenario_text
from .oracles import mutables, reference_parse_node_ref, reference_require

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {
    "schema": 1,
    "domains": [
        {
            "id": 1,
            "nodes": [
                {"local": 1, "ports": 4, "port_rate": 400, "add_drop": 4},
                {"local": 2, "ports": 4, "port_rate": 400, "add_drop": 4},
            ],
            "links": [{"a": 1, "b": 2, "length": 100.0}],
        }
    ],
}


def two_domain_doc():
    return {
        "schema": 1,
        "grid_size": 16,
        "domains": [
            {
                "id": 1,
                "nodes": [
                    {"local": 1, "ports": 4, "port_rate": 400, "add_drop": 4},
                    {"local": 2, "ports": 4, "port_rate": 400, "add_drop": 4},
                ],
                "links": [{"a": 1, "b": 2, "length": 50.0}],
            },
            {
                "id": 2,
                "nodes": [{"local": 1, "ports": 4, "port_rate": 400, "add_drop": 4}],
                "links": [],
            },
        ],
        "border_links": [{"a": [1, 2], "b": [2, 1], "length": 80.0}],
        "traffic": {
            "arrivals": 10,
            "arrival_rate": 1.0,
            "mean_holding": 4.0,
            "pairs": [{"src": [1, 1], "dst": [2, 1], "weight": 2.0}],
        },
        "seed": 5,
    }


class TestParseScenario:
    def test_minimal_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.grid_size == 80
        assert sc.k_paths == 3
        assert sc.recovery == "auto-recompile"
        assert sc.mode_table == DEFAULT_MODE_TABLE

    def test_accepts_json_text(self):
        import json

        sc = parse_scenario(json.dumps(MINIMAL))
        assert sc.grid_size == 80

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ScenarioParseError, match="line"):
            parse_scenario("{not json")

    def test_deeply_nested_text_is_parse_error(self):
        with pytest.raises(ScenarioParseError, match="nested too deeply"):
            parse_scenario("[" * 100_000 + "]" * 100_000)

    def test_unknown_node_in_link(self):
        doc = {
            "schema": 1,
            "domains": [
                {
                    "id": 1,
                    "nodes": [{"local": 1, "ports": 4, "port_rate": 400, "add_drop": 4}],
                    "links": [{"a": 1, "b": 9, "length": 10.0}],
                }
            ],
        }
        with pytest.raises(ScenarioValidationError, match="unknown node"):
            parse_scenario(doc)

    def test_duplicate_node_within_domain(self):
        doc = {
            "schema": 1,
            "domains": [
                {
                    "id": 1,
                    "nodes": [
                        {"local": 1, "ports": 4, "port_rate": 400, "add_drop": 4},
                        {"local": 1, "ports": 4, "port_rate": 400, "add_drop": 4},
                    ],
                }
            ],
        }
        with pytest.raises(ScenarioValidationError, match="duplicate node"):
            parse_scenario(doc)

    def test_missing_field_named(self):
        with pytest.raises(ScenarioParseError, match="'schema'"):
            parse_scenario({"domains": []})

    def test_bad_recovery_policy(self):
        doc = dict(MINIMAL, recovery="retry-forever")
        with pytest.raises(ScenarioValidationError, match="recovery"):
            parse_scenario(doc)

    def test_traffic_and_events_exclusive(self):
        doc = dict(
            two_domain_doc(),
            events=[{"time": 0.0, "kind": "link_down", "a": [1, 1], "b": [1, 2]}],
        )
        with pytest.raises(ScenarioValidationError, match="not both"):
            parse_scenario(doc)

    def test_border_link_same_domain_rejected(self):
        doc = dict(MINIMAL)
        doc = {**doc, "border_links": [{"a": [1, 1], "b": [1, 2], "length": 5.0}]}
        with pytest.raises(ScenarioValidationError, match="different domains"):
            parse_scenario(doc)

    def test_duplicate_domain_id_rejected(self):
        doc = {
            "schema": 1,
            "domains": [MINIMAL["domains"][0], MINIMAL["domains"][0]],
        }
        with pytest.raises(ScenarioValidationError, match="duplicate domain"):
            parse_scenario(doc)


class TestBuildDomains:
    def test_shapes_and_stubs(self):
        sc = parse_scenario(two_domain_doc())
        domains = sc.build_domains()
        assert sorted(domains) == [1, 2]
        d1, d2 = domains[1], domains[2]
        # Border stubs carry zero capacity and keep foreign ownership.
        assert d1.graph.has_node(NodeId(2, 1))
        assert d1.graph.routers[NodeId(2, 1)].port_count == 0
        stubs = {
            node["id"]: node["stub"]
            for node in export_topology(domains)["domains"][0]["nodes"]
        }
        assert stubs == {"1.1": False, "1.2": False, "2.1": True}
        assert d1.graph.slot_count == 16
        assert d1.next_hop == {2: 2}
        assert d2.next_hop == {1: 1}

    def test_route_domains_picks_the_nearest_neighbor_then_the_lowest_id(self):
        # Borders 1-2, 1-3, 2-4, 3-4 and 3-5; every domain has nodes 1 and 2.
        doc = {
            "schema": 1,
            "domains": [
                {
                    "id": did,
                    "nodes": [
                        {"local": n, "ports": 4, "port_rate": 400, "add_drop": 4}
                        for n in (1, 2)
                    ],
                    "links": [{"a": 1, "b": 2, "length": 50.0}],
                }
                for did in range(1, 6)
            ],
            "border_links": [
                {"a": list(a), "b": list(b), "length": 80.0}
                for a, b in [
                    ((1, 1), (2, 1)),
                    ((1, 2), (3, 1)),
                    ((2, 2), (4, 1)),
                    ((3, 2), (4, 2)),
                    ((3, 2), (5, 1)),
                ]
            ],
        }
        domains = parse_scenario(doc).build_domains()
        # 1 reaches 4 through 2 or 3, 2 reaches 3 and 5 through 1 or 4, and
        # 4 reaches 1 through 2 or 3: each tie goes to the lower id.
        assert {did: ctrl.next_hop for did, ctrl in domains.items()} == {
            1: {2: 2, 3: 3, 4: 2, 5: 3},
            2: {1: 1, 3: 1, 4: 4, 5: 1},
            3: {1: 1, 2: 1, 4: 4, 5: 5},
            4: {1: 2, 2: 2, 3: 3, 5: 3},
            5: {1: 3, 2: 3, 3: 3, 4: 3},
        }
        d1 = domains[1]
        assert d1.next_hop.get(9) is None
        unknown = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(9, 1), 100))
        assert d1.compile(unknown).reason is BlockReason.NO_PATH
        assert not d1.outbox
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(4, 1), 100))
        d1.compile(iid)
        assert [(m.receiver, type(m.body)) for m in d1.outbox] == [(2, Delegate)]

    @staticmethod
    def assert_no_shared_state(domains):
        reached_from = {}
        for did, ctrl in domains.items():
            for attr, value in vars(ctrl).items():
                for obj in mutables(value):
                    first = reached_from.setdefault(id(obj), (did, attr))
                    assert first[0] == did, f"{did}.{attr} shares {obj!r:.60} with {first}"

    @pytest.mark.parametrize("name", ["reference.json", "three_domain_line.json"])
    def test_controllers_share_no_mutable_state(self, name):
        self.assert_no_shared_state(parse_scenario((SCENARIOS / name).read_text()).build_domains())

    @pytest.mark.parametrize("name", ["reference.json", "three_domain_line.json",
                                      "domain_ring.json", "churn-4"])
    def test_controllers_share_no_mutable_state_during_and_after_a_run(self, name):
        # A run ends with every intent departed, so walk mid-run too, while
        # DAGs, mirrors and bookings are populated.
        populated = []

        def audit(sim, event):
            if event.seq % 50 == 0:
                self.assert_no_shared_state(sim.domains)
                populated.append(sum(len(c.dag.nodes) for c in sim.domains.values()))

        result = Simulation(parse_scenario(scenario_text(name)), on_event=audit).run()
        self.assert_no_shared_state(result.domains)
        assert max(populated) > 0

    def test_mutables_walks_slotted_intent_nodes(self):
        node = IntentNode(RemoteIntent(neighbor=2))
        found = [id(obj) for obj in mutables(node)]
        assert id(node.children) in found and id(node.payload) in found

    def test_build_events_from_traffic(self):
        sc = parse_scenario(two_domain_doc())
        events = sc.build_events()
        assert len(events) == 10
        assert all(e.intent.src == NodeId(1, 1) for e in events)


# -- input boundary ---------------------------------------------------------------


def events_doc():
    return {
        **MINIMAL,
        "events": [
            {"time": 0.0, "kind": "arrival", "src": [1, 1], "dst": [1, 2],
             "rate": 100, "holding": 5.0},
            {"time": 1.0, "kind": "link_down", "a": [1, 1], "b": [1, 2]},
        ],
    }


def with_traffic(**fields):
    doc = two_domain_doc()
    doc["traffic"].update(fields)
    return doc


def with_node(**fields):
    doc = copy.deepcopy(MINIMAL)
    doc["domains"][0]["nodes"][0].update(fields)
    return doc


class TestInputBoundary:
    @pytest.mark.parametrize(
        "doc",
        [
            {"schema": 1, "domains": [1]},
            {"schema": 1, "domains": [{"id": 1, "nodes": [1]}]},
            [1],
            {**MINIMAL, "domains": [{**MINIMAL["domains"][0], "links": 5}]},
            {**MINIMAL, "border_links": {"a": [1, 1]}},
            {**MINIMAL, "events": "arrival"},
            with_traffic(pairs=7),
            with_traffic(rates={"gbps": 100}),
            {**MINIMAL, "mode_table": [3]},
            with_traffic(arrival_rate=float("nan")),
        ],
    )
    def test_malformed_containers_are_parse_errors(self, doc):
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            with_node(ports=-1),
            with_node(port_rate=-400),
            with_node(add_drop=-2),
            with_traffic(rates=[{"gbps": -100}]),
            with_traffic(rates=[{"gbps": 0}]),
            with_traffic(rates=[{"gbps": 100, "weight": 0.0}]),
            with_traffic(rates=[]),
            with_traffic(pairs=[{"src": [1, 1], "dst": [2, 1], "weight": -1.0}]),
            with_traffic(pairs=[]),
            with_traffic(arrivals=-1),
            with_traffic(mean_holding=0.0),
            {**two_domain_doc(), "seed": -1},
            {**MINIMAL, "domains": [{**MINIMAL["domains"][0], "links": [
                {"a": 1, "b": 2, "length": 100.0}, {"a": 2, "b": 1, "length": 50.0}]}]},
        ],
    )
    def test_out_of_range_values_are_validation_errors(self, doc):
        with pytest.raises(ScenarioValidationError):
            parse_scenario(doc)


    def test_first_offending_event_in_file_order_is_reported(self):
        arrival = events_doc()["events"][0]
        cases = [
            ([{**arrival, "time": 1.0}, {**arrival, "time": 0.5},
              {k: v for k, v in arrival.items() if k != "rate"}],
             "explicit events must be time-ordered"),
            ([{"time": 0.0, "kind": "link_down", "a": [1, 1], "b": [1, 2]},
              {"time": 1.0, "kind": "link_down", "a": [1, 2], "b": [1, 1]},
              {**arrival, "time": 0.5}],
             "link_down at time 1.0: fiber 1.2-1.1 already down"),
        ]
        for events, problem in cases:
            with pytest.raises(ScenarioValidationError) as refused:
                parse_scenario({**MINIMAL, "events": events})
            assert str(refused.value) == problem


# Every rule of TrafficConfig: the fields that break it, on top of
# TRAFFIC_BASE, and the one line that refuses them.
TRAFFIC_BASE = {"arrivals": 10, "arrival_rate": 1.0, "mean_holding": 5.0,
                "pairs": ((NodeId(1, 1), NodeId(1, 2), 1.0),), "rates": ((100, 1.0),)}
TIME_BOUND = ("traffic: arrivals / arrival_rate + mean_holding must be at most about "
              "2.447e+306, or event times overflow")
RATES_RULE = "traffic: rates need positive gbps and weights"
TRAFFIC_RULES = {
    "arrivals-negative": ({"arrivals": -1}, "traffic: arrivals must be >= 0"),
    "arrivals-past-bound": ({"arrivals": 100_001}, "traffic: arrivals must be <= 100000"),
    "arrival-rate-zero": ({"arrival_rate": 0.0}, "traffic: arrival rate must be > 0"),
    "arrival-rate-negative": ({"arrival_rate": -1.0}, "traffic: arrival rate must be > 0"),
    "mean-holding-zero": ({"mean_holding": 0.0}, "traffic: mean holding time must be > 0"),
    "mean-holding-negative": ({"mean_holding": -1.0},
                              "traffic: mean holding time must be > 0"),
    "mean-holding-overflows": ({"mean_holding": 1e308}, TIME_BOUND),
    "mean-holding-past-bound": ({"arrivals": 50, "mean_holding": 2.45e306}, TIME_BOUND),
    "arrival-rate-underflows": ({"arrival_rate": 1e-307}, TIME_BOUND),
    # The one arrival can come at 3.7e19, where doubles are 4096 apart.
    "holding-vanishes": ({"arrivals": 1, "arrival_rate": 1e-18, "mean_holding": 1.0},
                         "traffic: mean holding time must be >= 4294967296.0, 1048576 "
                         "times the spacing of doubles at the latest arrival time"),
    "no-pairs": ({"pairs": ()}, "traffic: needs at least one node pair"),
    "loop-pair": ({"pairs": ((NodeId(1, 1), NodeId(1, 1), 1.0),)},
                  "traffic: pair 1.1->1.1 is a loop"),
    "pair-weight-zero": ({"pairs": ((NodeId(1, 1), NodeId(1, 2), 0.0),)},
                         "traffic: pair 1.1->1.2 needs a positive weight"),
    "pair-weight-negative": ({"pairs": ((NodeId(1, 2), NodeId(1, 1), -1.0),)},
                             "traffic: pair 1.2->1.1 needs a positive weight"),
    "no-rates": ({"rates": ()}, RATES_RULE),
    "rate-gbps-zero": ({"rates": ((0, 1.0),)}, RATES_RULE),
    "rate-gbps-negative": ({"rates": ((-100, 1.0),)}, RATES_RULE),
    "rate-weight-zero": ({"rates": ((100, 0.0),)}, RATES_RULE),
    "pair-weights-infinite-total": (
        {"pairs": ((NodeId(1, 1), NodeId(1, 2), 1e308), (NodeId(1, 2), NodeId(1, 1), 1e308))},
        "traffic: pair weights must have a finite total"),
    # Each weight is finite, but u * inf would make _pick always choose 400.
    "rate-weights-infinite-total": ({"rates": ((100, 1e308), (400, 1e308))},
                                    "traffic: rate weights must have a finite total"),
}


@pytest.mark.parametrize("fields, problem", TRAFFIC_RULES.values(), ids=TRAFFIC_RULES)
def test_traffic_config_refuses_with_one_line(fields, problem):
    with pytest.raises(ScenarioValidationError) as refused:
        TrafficConfig(**{**TRAFFIC_BASE, **fields})
    assert str(refused.value) == problem


@pytest.mark.parametrize("fields, problem", TRAFFIC_RULES.values(), ids=TRAFFIC_RULES)
def test_validate_refuses_traffic_with_one_line(tmp_path, capsys, fields, problem):
    traffic = {**TRAFFIC_BASE, **fields}
    traffic["pairs"] = [{"src": list(src), "dst": list(dst), "weight": weight}
                        for src, dst, weight in traffic["pairs"]]
    traffic["rates"] = [{"gbps": gbps, "weight": weight} for gbps, weight in traffic["rates"]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**MINIMAL, "traffic": traffic}))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"ibnsim: {path}: {problem}\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """Every (key or index) path into the nested value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A valid scenario with one to three fields replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from([MINIMAL, two_domain_doc(), events_doc()])))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(max_examples=400, deadline=None)
@given(st.one_of(JSON_VALUES, mutated_documents()))
def test_any_json_parses_or_raises_scenario_error(value):
    # Grid sizes and arrival counts stay small here (integers up to 40), so
    # building the world allocates little.
    try:
        scenario = parse_scenario(json.dumps(value))
    except ScenarioError:
        return
    Simulation(scenario)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["arrival", "link_down", "link_up"]),
                          st.sampled_from([([1, 1], [1, 2]), ([1, 2], [2, 1])])),
                max_size=8))
def test_validated_link_events_never_stop_the_run(steps):
    # Whatever parsing accepts, the engine can replay: no link event finds
    # its fiber already in the state it asks for.
    doc = two_domain_doc()
    del doc["traffic"]
    doc["events"] = [
        {"time": i // 2, "kind": kind, "a": a, "b": b} if kind != "arrival" else
        {"time": i // 2, "kind": kind, "src": [1, 1], "dst": [2, 1], "rate": 100, "holding": 1.5}
        for i, (kind, (a, b)) in enumerate(steps)
    ]
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ScenarioValidationError:
        return
    Simulation(scenario).run()


# -- parser fast paths against the reference helpers --------------------------------


class Level(enum.IntEnum):
    ONE = 1


SPECIALS = [True, False, Level.ONE, 10**400, -(10**400), math.inf, -math.inf, math.nan, -0.0]
ATOMS = st.one_of(
    st.sampled_from(SPECIALS),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.text(max_size=3),
    st.none(),
)
VALUES = st.one_of(ATOMS, st.lists(ATOMS, max_size=3))
KEYS = st.sampled_from(["a", "b"])


@st.composite
def mappings(draw):
    """A dict, OrderedDict or defaultdict holding some of KEYS, or a value
    that is no mapping at all."""
    items = draw(st.dictionaries(KEYS, VALUES, max_size=2))
    shape = draw(st.sampled_from(["dict", "ordered", "default", "not-a-mapping"]))
    if shape == "dict":
        return dict(items)
    if shape == "ordered":
        return OrderedDict(items)
    if shape == "default":
        return defaultdict(list, items)
    return draw(VALUES)


def outcome(fn, *args):
    """What a call gives back, by type and repr, or what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # the exception is the outcome
        return "raises", type(exc), str(exc)
    return "returns", type(value), repr(value)


@settings(max_examples=600, deadline=None)
@given(mappings(), KEYS, st.sampled_from([int, float, str, list]))
@example(defaultdict(list), "a", list)
@example(OrderedDict(a=1.5), "a", float)
@example({"a": True}, "a", int)
@example({"a": Level.ONE}, "a", int)
@example({"a": 10**400}, "a", float)
@example({"a": math.inf}, "a", float)
@example({"a": math.nan}, "a", float)
@example({"a": -0.0}, "a", float)
@example({"a": 3}, "a", float)
@example({"b": 3}, "a", int)
def test_require_answers_like_the_reference(mapping, key, kind):
    keys = list(mapping) if isinstance(mapping, dict) else None
    assert outcome(_require, mapping, key, kind) == outcome(reference_require, mapping, key, kind)
    # A missing key stays missing: a defaultdict is asked, not indexed.
    assert (list(mapping) if isinstance(mapping, dict) else None) == keys


@settings(max_examples=400, deadline=None)
@given(st.one_of(VALUES, st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(SPECIALS)),
                                  min_size=2, max_size=2)))
@example([1, True])
@example([Level.ONE, 2])
@example((1, 2))
@example([1, 2, 3])
def test_parse_node_ref_answers_like_the_reference(value):
    assert outcome(_parse_node_ref, value, "ctx") == outcome(reference_parse_node_ref, value, "ctx")

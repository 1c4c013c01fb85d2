"""Tests for scenario document parsing and validation."""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import eqm_lab
from eqm_lab import koopman
from eqm_lab.config import (
    _DOCUMENT_KEYS,
    DEFAULT_THRESHOLDS,
    SPLIT_MAX_DIM,
    ConfigError,
    build_config,
    parse_config,
    with_dt,
)
from eqm_lab.hilbert import SIGMA_X, SIGMA_Z
from eqm_lab.koopman import HarmonicOscillator
from eqm_lab.observables import StateMeasure
from conftest import matrix_to_pairs

SX = matrix_to_pairs(SIGMA_X)
SZ = matrix_to_pairs(SIGMA_Z)
UP = matrix_to_pairs(np.diag([1.0, 0.0]))
PLUS_VEC = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]


def minimal_doc(**overrides):
    doc = {
        "id": "linear-qubit-test",
        "dimension": 2,
        "hamiltonian": {"type": "linear", "A": SZ},
        "initial": {"state_vector": PLUS_VEC},
        "integrator": {"dt": 1e-3, "t_final": 0.1},
        "outputs": ["invariants"],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_linear_qubit(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        assert cfg.initial.dim == 2
        assert cfg.scenario_id == "linear-qubit-test"
        assert cfg.integrator.dt == 1e-3
        assert cfg.thresholds == DEFAULT_THRESHOLDS

    def test_invalid_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            parse_config("{\n  \"id\": }")

    def test_mean_field_document(self):
        doc = minimal_doc(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0})
        cfg = build_config(doc)
        assert cfg.hamiltonian.label == "mean_field"

    def test_polynomial_document(self):
        doc = minimal_doc(hamiltonian={
            "type": "polynomial",
            "terms": [{"coefficient": 0.5, "factors": [SZ, SZ]}],
        })
        assert build_config(doc).hamiltonian.label == "polynomial"

    def test_measure_initial(self):
        doc = minimal_doc(
            initial={"measure": {"support": [UP, matrix_to_pairs(np.eye(2) / 2)],
                                 "weights": [0.25, 0.75]}},
            outputs=["conservation"],
            observables=[{"type": "constant", "A": SX}],
        )
        cfg = build_config(doc)
        assert isinstance(cfg.initial, StateMeasure)
        assert len(cfg.initial.support) == 2

    def test_koopman_only_document(self):
        doc = {
            "id": "koopman-test",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic", "omega": 2.0},
                "observables": [{"name": "gaussian", "center": [0.0, 0.0], "width": 1.0}],
                "times": [0.5],
            },
        }
        cfg = build_config(doc)
        assert cfg.initial is None
        assert cfg.koopman.flow == HarmonicOscillator(omega=2.0)
        assert len(cfg.koopman.generator_points) == 10

    def test_conservation_times_default_to_horizon(self):
        doc = minimal_doc(outputs=["conservation"],
                          observables=[{"type": "constant", "A": SX}])
        assert build_config(doc).conservation_times == (0.1,)


class TestValidation:
    def test_non_unit_trace_initial_names_field_and_value(self):
        doc = minimal_doc(initial={"density_matrix": matrix_to_pairs(np.diag([0.5, 0.4]))})
        with pytest.raises(ConfigError, match="initial.density_matrix") as err:
            build_config(doc)
        assert "0.9" in str(err.value)

    def test_wigner_requires_pair(self):
        doc = minimal_doc(outputs=["wigner"])
        with pytest.raises(ConfigError, match="wigner requires wigner_pair"):
            build_config(doc)

    def test_wigner_requires_pure_initial(self):
        doc = minimal_doc(outputs=["wigner"],
                          initial={"density_matrix": matrix_to_pairs(np.eye(2) / 2)},
                          wigner_pair={"state_vector": PLUS_VEC})
        with pytest.raises(ConfigError, match=r"^initial: wigner's initial state is not pure: "
                                              r"purity = 0\.5$"):
            build_config(doc)

    def test_wigner_requires_pure_pair(self):
        doc = minimal_doc(outputs=["wigner"],
                          wigner_pair={"density_matrix": matrix_to_pairs(np.eye(2) / 2)})
        with pytest.raises(ConfigError, match=r"^wigner_pair: wigner's wigner_pair state is not "
                                              r"pure: purity = 0\.5$") as err:
            build_config(doc)
        assert err.value.path == "wigner_pair"

    def test_dimension_is_read_as_a_count(self):
        assert build_config(minimal_doc(dimension=2.0)).initial.dim == 2
        with pytest.raises(ConfigError, match=r"^dimension: expected an integer, got 2\.5$"):
            build_config(minimal_doc(dimension=2.5))

    @pytest.mark.parametrize("dimension", [1, 65])
    def test_dimension_outside_the_lab_fails_at_its_path(self, dimension):
        with pytest.raises(ConfigError, match=rf"^dimension: dimension must be an integer in "
                                              rf"\[2, 64\], got {dimension}$") as err:
            build_config(minimal_doc(dimension=dimension))
        assert err.value.path == "dimension"

    def test_non_hermitian_literal_rejected_at_parse_time(self):
        skew = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc = minimal_doc(hamiltonian={"type": "linear", "A": skew})
        with pytest.raises(ConfigError, match="hamiltonian.A.*Hermitian"):
            build_config(doc)

    def test_dimension_mismatch_names_field(self):
        doc = minimal_doc(dimension=3)
        with pytest.raises(ConfigError, match="hamiltonian.A.*expected dimension 3"):
            build_config(doc)

    def test_unknown_output(self):
        doc = minimal_doc(outputs=["plots"])
        with pytest.raises(ConfigError, match="unknown output 'plots'"):
            build_config(doc)

    def test_unknown_hamiltonian_type(self):
        doc = minimal_doc(hamiltonian={"type": "quartic", "A": SZ})
        with pytest.raises(ConfigError, match="unknown Hamiltonian type"):
            build_config(doc)

    def test_unknown_threshold_key(self):
        doc = minimal_doc(thresholds={"fidelity": 1e-3})
        with pytest.raises(ConfigError, match="thresholds.fidelity"):
            build_config(doc)

    def test_threshold_override(self):
        doc = minimal_doc(thresholds={"conservation": 1e-6})
        assert build_config(doc).thresholds["conservation"] == 1e-6

    def test_trajectory_rejects_measure_initial(self):
        doc = minimal_doc(
            outputs=["trajectory"],
            initial={"measure": {"support": [UP], "weights": [1.0]}},
        )
        with pytest.raises(ConfigError, match="single initial state"):
            build_config(doc)

    def test_conservation_requires_observables(self):
        doc = minimal_doc(outputs=["conservation"])
        with pytest.raises(ConfigError, match="at least one observable"):
            build_config(doc)

    def test_koopman_output_requires_section(self):
        doc = minimal_doc(outputs=["invariants", "koopman"])
        with pytest.raises(ConfigError, match="koopman output requires"):
            build_config(doc)

    def test_integrator_invariants_enforced(self):
        doc = minimal_doc(integrator={"dt": 0.5, "t_final": 0.1})
        with pytest.raises(ConfigError, match="integrator"):
            build_config(doc)

    def test_a_mean_field_carries_its_split(self):
        doc = minimal_doc(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 0.5})
        a, b, strength = build_config(doc).hamiltonian.split
        assert np.array_equal(a, SIGMA_X) and np.array_equal(b, SIGMA_Z) and strength == 0.5

    @pytest.mark.parametrize("integrator, times, split", [
        ({"dt": 1e-3, "t_final": 5.0}, [], True),            # 5000 steps, SPLIT_MAX_STEPS
        ({"dt": 1e-3, "t_final": 0.1}, [5.0, -5.0], True),
        ({"dt": 1e-3, "t_final": 5.5}, [], False),
        ({"dt": 1e-3, "t_final": 0.1}, [0.5, 5.5], False),   # the longest conservation leg
        ({"dt": 1e-3, "t_final": 0.1}, [-5.5], False),
    ], ids=["at-limit", "legs-at-limit", "evolve-past", "leg-past", "backward-leg-past"])
    def test_the_split_is_dropped_when_the_longest_leg_is_past_the_limit(
            self, integrator, times, split):
        # Every run of a scenario takes the same step: the split if its
        # longest leg fits, the midpoint on every run otherwise.  Given times
        # come with a conservation output, so their legs run.
        conservation = dict(outputs=["invariants", "conservation"], conservation_times=times,
                            observables=[{"type": "constant", "A": SX}]) if times else {}
        doc = minimal_doc(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0},
                          integrator=integrator, **conservation)
        assert (build_config(doc).hamiltonian.split is not None) == split

    @pytest.mark.parametrize("outputs, integrator, times", [
        (["invariants"], {"dt": 1e-3, "t_final": 1.0}, [100.0]),
        (["conservation"], {"dt": 1e-3, "t_final": 100.0}, [1.0]),
    ], ids=["unused-times", "unused-t_final"])
    def test_a_leg_the_scenario_does_not_run_keeps_the_split(self, outputs, integrator, times):
        doc = minimal_doc(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0},
                          integrator=integrator, outputs=outputs, conservation_times=times,
                          observables=[{"type": "constant", "A": SX}])
        cfg = build_config(doc)
        assert cfg.hamiltonian.split is not None
        assert with_dt(cfg, 2e-3).hamiltonian.split is not None

    @pytest.mark.parametrize("dim", [SPLIT_MAX_DIM, SPLIT_MAX_DIM + 1])
    def test_the_split_is_dropped_above_the_measured_dimension(self, dim):
        a, b = (matrix_to_pairs(m) for m in (np.diag(np.arange(dim, dtype=float)), np.eye(dim)))
        doc = minimal_doc(dimension=dim,
                          hamiltonian={"type": "mean_field", "A": a, "B": b, "lambda": 1.0},
                          initial={"density_matrix": matrix_to_pairs(np.eye(dim) / dim)})
        assert (build_config(doc).hamiltonian.split is not None) == (dim <= SPLIT_MAX_DIM)

    def test_other_families_carry_no_split(self):
        polynomial = {"type": "polynomial", "terms": [{"coefficient": 0.5, "factors": [SZ, SZ]}]}
        for hamiltonian in ({"type": "linear", "A": SZ}, polynomial):
            assert build_config(minimal_doc(hamiltonian=hamiltonian)).hamiltonian.split is None

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["hamiltonian"]
        with pytest.raises(ConfigError, match="hamiltonian.*missing"):
            build_config(doc)

    @pytest.mark.parametrize("point, message", [(5, "expected an array"),
                                                 ([1.0], r"expected \[q, p\]")])
    def test_koopman_points_are_phase_points(self, point, message):
        doc = {
            "id": "koopman-test",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic"},
                "observables": [{"name": "q"}],
                "times": [0.5],
                "points": [point],
            },
        }
        with pytest.raises(ConfigError, match=rf"koopman\.points\[0\]: {message}") as err:
            build_config(doc)
        assert err.value.path == "koopman.points[0]"

    def test_dimension_bounds(self):
        doc = minimal_doc(dimension=1)
        with pytest.raises(ConfigError, match="dimension"):
            build_config(doc)

    @pytest.mark.parametrize("section, key", [("integrator", "record_stride"),
                                              ("integrator", "midpoint_max_iter"),
                                              ("quadrature", "order")])
    def test_integer_fields_reject_fractions(self, section, key):
        doc = _with_integer(section, key, 2.5)
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected an integer, got 2\.5$"):
            build_config(doc)
        build_config(_with_integer(section, key, 50.0))

    @pytest.mark.parametrize("order", [koopman.MAX_ORDER + 1, 10**9])
    def test_quadrature_order_is_at_most_max_order(self, order, monkeypatch):
        def unbuilt(n):
            raise AssertionError(f"leggauss({n}) was called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", unbuilt)
        with pytest.raises(ConfigError, match=r"^koopman\.quadrature\.order: order must be a "
                                              rf"finite number in \[2, 512\], got {order}$"):
            build_config(_with_integer("quadrature", "order", order))
        monkeypatch.undo()
        cfg = build_config(_with_integer("quadrature", "order", koopman.MAX_ORDER))
        assert cfg.koopman.quadrature.q.shape == (koopman.MAX_ORDER ** 2,)

    @pytest.mark.parametrize("value", [1, 0, "true", None, [True]], ids=repr)
    def test_export_cocycle_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match="^export_cocycle: expected true or false$") as err:
            build_config(minimal_doc(export_cocycle=value))
        assert err.value.path == "export_cocycle"

    def test_a_measure_has_no_single_initial_state(self):
        cfg = build_config(minimal_doc(outputs=["conservation"],
                                       observables=[{"type": "constant", "A": SX}],
                                       initial={"measure": {"support": [UP], "weights": [1.0]}}))
        assert isinstance(cfg.initial, StateMeasure)
        with pytest.raises(ValueError, match="^this scenario's initial condition is a measure, "
                                             "not a single state$"):
            cfg.initial_state

    def test_conservation_needs_a_time(self):
        doc = minimal_doc(outputs=["conservation"], observables=[{"type": "constant", "A": SX}],
                          conservation_times=[])
        with pytest.raises(ConfigError, match="^conservation_times: need at least one time$"):
            build_config(doc)

    @pytest.mark.parametrize("scenario_id", ["/tmp/escaped", "../x", "a/b", "a\\b", ".", "..",
                                             "a\0b"])
    def test_id_names_one_directory(self, scenario_id):
        with pytest.raises(ConfigError, match="^id: must name one directory") as err:
            build_config(minimal_doc(id=scenario_id))
        assert err.value.path == "id"


def _with_integer(section, key, value):
    """A document whose integrator or koopman quadrature section sets one integer field."""
    if section == "integrator":
        return minimal_doc(integrator={"dt": 1e-3, "t_final": 0.1, key: value})
    return {
        "id": "koopman-test",
        "outputs": ["koopman"],
        "koopman": {"flow": {"type": "harmonic"}, "observables": [{"name": "q"}],
                    "times": [0.5], "quadrature": {key: value}},
    }


CORPUS = sorted((Path(eqm_lab.__file__).resolve().parent / "corpus").glob("*.json"))
FUZZ_VALUES = (None, True, "x", [], {}, 5, 2.5, -1, 0)


def _fuzz_paths(node, prefix=()):
    """Every path below node; a matrix or vector literal (a list of lists) is one leaf."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and not (node and isinstance(node[0], list)):
        children = enumerate(node)
    else:
        return []
    paths = []
    for key, child in children:
        paths.append(prefix + (key,))
        paths.extend(_fuzz_paths(child, prefix + (key,)))
    return paths


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestTypeFuzz:
    @pytest.mark.parametrize("corpus_path", CORPUS, ids=lambda p: p.stem)
    def test_any_wrong_type_is_a_config_error(self, corpus_path):
        # Every node of a shipped document, the document itself included, is
        # replaced by each JSON type in turn; parsing either succeeds or
        # raises ConfigError, which the CLI reports with exit code 2.
        doc = json.loads(corpus_path.read_text())
        for path in [()] + _fuzz_paths(doc):
            for value in FUZZ_VALUES:
                try:
                    build_config(_replaced(doc, path, value))
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{'.'.join(map(str, path)) or '<document>'} = {value!r}: "
                                f"{type(exc).__name__}: {exc}")


def _object_keys(node, prefix=()):
    """The (object path, key) of every key of every object below node, in document order."""
    if isinstance(node, dict):
        children = node.items()
        found = [(prefix, key) for key in node]
    elif isinstance(node, list):
        children, found = enumerate(node), []
    else:
        return []
    for key, child in children:
        found.extend(_object_keys(child, prefix + (key,)))
    return found


def _path_text(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


class TestKeyFuzz:
    @pytest.mark.parametrize("corpus_path", CORPUS, ids=lambda p: p.stem)
    def test_any_unknown_key_is_a_config_error(self, corpus_path):
        # Every key of every object of a shipped document is misspelt in turn
        # by appending "_x"; parsing fails at the misspelt key's path.
        doc = json.loads(corpus_path.read_text())
        build_config(doc)
        keys = _object_keys(doc)
        assert keys
        for prefix, key in keys:
            renamed = copy.deepcopy(doc)
            node = renamed
            for step in prefix:
                node = node[step]
            node[f"{key}_x"] = node.pop(key)
            with pytest.raises(ConfigError) as err:
                build_config(renamed)
            assert err.value.path == _path_text(prefix + (f"{key}_x",)), err.value


def _typed_objects(node, prefix=()):
    """(path, kind) of every object below node whose type has its own _DOCUMENT_KEYS entry."""
    found = []
    if isinstance(node, dict):
        kind = re.sub(r"\[\d+\]", "", _path_text(prefix))
        if f"{kind}:{node.get('type')}" in _DOCUMENT_KEYS:
            found.append((prefix, kind))
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return []
    for key, child in children:
        found.extend(_typed_objects(child, prefix + (key,)))
    return found


class TestForeignTypeKeys:
    @pytest.mark.parametrize("corpus_path", CORPUS, ids=lambda p: p.stem)
    def test_a_key_of_another_type_is_a_config_error(self, corpus_path):
        # Every key that another type of the same object declares is put in
        # turn into each typed object of a shipped document; parsing fails at
        # that key's path, naming the object's own type.
        doc = json.loads(corpus_path.read_text())
        build_config(doc)
        tried = 0
        for prefix, kind in _typed_objects(doc):
            node = doc
            for step in prefix:
                node = node[step]
            own = _DOCUMENT_KEYS[f"{kind}:{node['type']}"]
            foreign = {key for entry, keys in _DOCUMENT_KEYS.items()
                       if entry.startswith(f"{kind}:") for key in keys} - set(own)
            for key in sorted(foreign):
                tried += 1
                with pytest.raises(ConfigError, match=f"unknown field for type {node['type']!r}$") as err:
                    build_config(_replaced(doc, prefix + (key,), 1.0))
                assert err.value.path == _path_text(prefix + (key,)), err.value
        assert tried  # every shipped document holds a type that takes fewer keys than another

    @pytest.mark.parametrize("section, obj, key", [
        ("koopman", {"type": "pendulum", "omega": 7.0}, "omega"),
        ("koopman", {"type": "harmonic", "g": 9.0}, "g"),
        ("hamiltonian", {"type": "linear", "A": SZ, "lambda": 1.0}, "lambda"),
        ("hamiltonian", {"type": "linear", "A": SZ, "B": SX}, "B"),
        ("hamiltonian", {"type": "mean_field", "A": SZ, "B": SX, "lambda": 1.0, "terms": []},
         "terms"),
        ("hamiltonian", {"type": "polynomial", "terms": [], "A": SZ}, "A"),
        ("observables", {"type": "constant", "A": SX, "B": SZ}, "B"),
    ], ids=lambda v: v if isinstance(v, str) else v["type"] if isinstance(v, dict) else None)
    def test_each_type_takes_only_its_own_keys(self, section, obj, key):
        # A key that only another type reads is an error, not ignored.
        if section == "koopman":
            doc = {"id": "koopman-test", "outputs": ["koopman"],
                   "koopman": {"flow": obj, "observables": [{"name": "q"}], "times": [0.5]}}
            path = f"koopman.flow.{key}"
        elif section == "hamiltonian":
            doc, path = minimal_doc(hamiltonian=obj), f"hamiltonian.{key}"
        else:
            doc, path = minimal_doc(observables=[obj]), f"observables[0].{key}"
        with pytest.raises(ConfigError, match=f"unknown field for type {obj['type']!r}$") as err:
            build_config(doc)
        assert err.value.path == path


class TestMidpointKeys:
    DOC = dict(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0})

    @pytest.mark.parametrize("key, value", [("midpoint_tol", 1e-10), ("midpoint_max_iter", 20)])
    def test_a_midpoint_key_of_a_split_scenario_is_a_config_error(self, key, value):
        # The split step takes no midpoint iteration, so the key would be ignored.
        doc = minimal_doc(integrator={"dt": 1e-3, "t_final": 0.1, key: value}, **self.DOC)
        with pytest.raises(ConfigError) as err:
            build_config(doc)
        assert err.value.path == f"integrator.{key}"
        assert str(err.value) == (f"integrator.{key}: not used: this mean field takes its "
                                  "split step, which has no midpoint iteration")

    @pytest.mark.parametrize("key, value", [("midpoint_tol", 1e-10), ("midpoint_max_iter", 20)])
    def test_a_midpoint_key_is_read_where_the_midpoint_runs(self, key, value):
        long = minimal_doc(integrator={"dt": 1e-3, "t_final": 6.0, key: value}, **self.DOC)
        assert getattr(build_config(long).integrator, key) == value
        linear = minimal_doc(integrator={"dt": 1e-3, "t_final": 0.1, key: value})
        assert getattr(build_config(linear).integrator, key) == value


class TestShippedConfigs:
    def test_sample_documents_parse(self):
        # The shipped configs are the corpus files, one per suite scenario.
        corpus_dir = Path(eqm_lab.__file__).resolve().parent / "corpus"
        paths = sorted(corpus_dir.glob("*.json"))
        assert len(paths) == 8
        for path in paths:
            parse_config(path.read_text())


class TestDtOverride:
    def test_override_applies(self):
        cfg = build_config(minimal_doc())
        assert with_dt(cfg, 0.05).integrator.dt == 0.05

    def test_override_validates(self):
        cfg = build_config(minimal_doc())
        with pytest.raises(ConfigError, match="integrator.dt"):
            with_dt(cfg, 0.5)  # exceeds t_final = 0.1

    @pytest.mark.parametrize("dt", [True, "0.05", None, math.nan, 0.0], ids=repr)
    def test_override_is_checked_before_it_is_read_as_a_float(self, dt):
        # float(True) and float("0.05") would pass; the rule is require_real's.
        cfg = build_config(minimal_doc())
        with pytest.raises(ConfigError, match=rf"^integrator\.dt: dt must be a finite number > 0, "
                                              rf"got {re.escape(repr(dt))}$") as err:
            with_dt(cfg, dt)
        assert err.value.path == "integrator.dt"

    def test_override_takes_numpy_and_int_values(self):
        cfg = build_config(minimal_doc())
        assert with_dt(cfg, np.float64(0.05)).integrator.dt == 0.05
        cfg = build_config(minimal_doc(integrator={"dt": 0.1, "t_final": 1.0}))
        assert with_dt(cfg, 1).integrator.dt == 1.0

    def test_override_refits_the_split(self):
        doc = minimal_doc(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0},
                          integrator={"dt": 1e-3, "t_final": 1.0})
        cfg = build_config(doc)
        assert cfg.hamiltonian.split is not None
        assert with_dt(cfg, 1e-2).hamiltonian.split is not None
        fine = with_dt(cfg, 1e-4)  # 10^4 steps
        assert fine.hamiltonian.split is None
        assert fine.hamiltonian.generator is cfg.hamiltonian.generator
        # A split dropped stays dropped: the scenario keeps the midpoint at any dt.
        assert with_dt(fine, 1e-2).hamiltonian.split is None

    def test_override_without_integrator(self):
        doc = {
            "id": "koopman-test",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "pendulum", "g": 1.0},
                "observables": [{"name": "q"}],
                "times": [0.1],
            },
        }
        with pytest.raises(ConfigError, match="no integrator"):
            with_dt(build_config(doc), 0.01)

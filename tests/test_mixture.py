"""Tests for workload mixtures (multi-tenant traces)."""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.engine.server import simulate_trace
from repro.models.memory import node_state_bytes
from repro.workloads import (
    component_of,
    generate_trace,
    mix_streams,
)
from repro.workloads.trace import Trace, TraceStream


class TestMixTraces:
    def _mixture(self):
        chat = generate_trace("lmsys", n_sessions=6, seed=1)
        agent = generate_trace("swebench", n_sessions=4, seed=2)
        return chat, agent, mix_streams([chat, agent]).materialize()

    def test_sessions_and_requests_preserved(self):
        chat, agent, mixed = self._mixture()
        assert mixed.n_sessions == chat.n_sessions + agent.n_sessions
        assert mixed.n_requests == chat.n_requests + agent.n_requests
        assert mixed.total_input_tokens == (
            chat.total_input_tokens + agent.total_input_tokens
        )

    def test_arrivals_sorted(self):
        _, _, mixed = self._mixture()
        arrivals = [s.arrival_time for s in mixed.sessions]
        assert arrivals == sorted(arrivals)

    def test_session_ids_unique_and_attributable(self):
        chat, agent, mixed = self._mixture()
        ids = [s.session_id for s in mixed.sessions]
        assert len(ids) == len(set(ids))
        names = {component_of(mixed, sid) for sid in ids}
        assert names == {"lmsys", "swebench"}

    def test_component_of_validates(self):
        chat = generate_trace("lmsys", n_sessions=3, seed=3)
        with pytest.raises(ValueError):
            component_of(chat, 0)  # not a mixture
        _, _, mixed = self._mixture()
        with pytest.raises(KeyError):
            component_of(mixed, 5_000_000)

    def test_nested_mixture_rejected(self):
        """A mixture's ids are already offset: mixing it again would give a
        second component the same ids and ``component_of`` the wrong name."""
        chat, _, mixed = self._mixture()
        nested = r"component 'lmsys\+swebench' has session id 100000\d"
        with pytest.raises(ValueError, match=nested):
            mix_streams([mixed, chat]).materialize()
        stream = mix_streams([TraceStream.from_trace(mixed), TraceStream.from_trace(chat)])
        with pytest.raises(ValueError, match=nested):  # lazily, on the pass
            stream.materialize()

    def test_default_name_and_metadata(self):
        _, _, mixed = self._mixture()
        assert mixed.name == "lmsys+swebench"
        assert [c["name"] for c in mixed.metadata["components"]] == [
            "lmsys", "swebench",
        ]
        named = mix_streams([generate_trace("sharegpt", n_sessions=2, seed=4)], name="solo")
        assert named.name == "solo"

    def test_empty_component_list_rejected(self):
        with pytest.raises(ValueError):
            mix_streams([])

    def test_round_content_shared_not_copied(self):
        """Mixing re-wraps sessions without touching token arrays."""
        chat, _, mixed = self._mixture()
        original = chat.sessions[0].rounds[0].new_input_tokens
        mirrored = next(
            s for s in mixed.sessions
            if component_of(mixed, s.session_id) == "lmsys" and s.session_id % 1_000_000 == 0
        ).rounds[0].new_input_tokens
        assert np.shares_memory(original, mirrored)

    def test_engine_serves_mixture(self, hybrid):
        _, _, mixed = self._mixture()
        cache = MarconiCache(hybrid, 20 * node_state_bytes(hybrid, 3000, True), alpha=1.0)
        result = simulate_trace(hybrid, cache, mixed, policy_name="mixed")
        assert result.n_requests == mixed.n_requests

    def test_serialization_roundtrip(self, tmp_path):
        _, _, mixed = self._mixture()
        path = tmp_path / "mixed.jsonl"
        mixed.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded.n_requests == mixed.n_requests
        assert component_of(loaded, loaded.sessions[-1].session_id) in (
            "lmsys", "swebench",
        )

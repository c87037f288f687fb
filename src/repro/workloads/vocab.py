"""Token material for synthetic traces.

Two kinds of token segments exist in the generators:

* **Shared segments** (system prompts, instruction templates, few-shot
  preambles) — drawn from a deterministic pool so that distinct sessions
  can share byte-identical prefixes, which is the "purely input" reuse
  class of the paper's taxonomy.
* **Fresh segments** (user turns, model outputs, environment observations)
  — sampled from the trace's main RNG stream; with a 32K vocabulary the
  probability of two independent fresh segments sharing a long prefix is
  negligible, so only intentional sharing creates cache reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.distributions import LogNormalLength, zipf_weights


def fresh_tokens(rng: np.random.Generator, n: int, vocab_size: int) -> np.ndarray:
    """``n`` independent uniform token IDs (unique content)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return rng.integers(0, vocab_size, size=n, dtype=np.int32)


@dataclass
class SharedSegmentPool:
    """A deterministic pool of reusable token segments with Zipf popularity.

    Template contents depend only on ``(base_seed, template index)``, so a
    pool rebuilt with the same seed yields identical segments — traces are
    reproducible end to end.
    """

    base_seed: int
    n_templates: int
    length: LogNormalLength
    vocab_size: int
    zipf_exponent: float = 1.2
    _templates: list[np.ndarray] = field(default_factory=list, repr=False)
    _cdf: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n_templates <= 0:
            raise ValueError(f"n_templates must be positive, got {self.n_templates}")
        self._templates = []
        for index in range(self.n_templates):
            rng = np.random.default_rng((self.base_seed, index))
            n = self.length.sample(rng)
            self._templates.append(fresh_tokens(rng, n, self.vocab_size))
        # Generator.choice(p=)'s CDF, computed once: cumsum, then divide by
        # the last element, so a draw below reads the same index.
        cdf = zipf_weights(self.n_templates, self.zipf_exponent).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def get(self, index: int) -> np.ndarray:
        """Template by index (read-only by convention)."""
        return self._templates[index]

    def sample_index(self, rng: np.random.Generator) -> int:
        """Zipf-popular template index: ``rng.choice(n_templates, p=weights)``,
        the same index from the same one double."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Zipf-popular template segment."""
        return self.get(self.sample_index(rng))

    @property
    def template_lengths(self) -> list[int]:
        return [len(t) for t in self._templates]

"""Shared pieces of the benchmark: the workload interface and check failures."""


class CheckFailure(Exception):
    """An op's output failed an independent check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


class Workload:
    """What run.py drives.  `items` is the first round, built at set-up;
    every item has a `key` naming its input, equal only for equal inputs."""

    name = ""
    min_rounds = 1
    items: list

    def round_items(self, r: int) -> list:
        return self.items

    def trace_items(self, k: int) -> list:
        """Ops of pass k (warm-up, untraced, traced) of the traced run."""
        return self.items

    def op(self, item):
        """The timed work; returns its output."""
        raise NotImplementedError

    def observe(self, item, out):
        """The output as the checks see it, read outside the timed region."""
        return out

    def digest(self, result):
        """A value that later ops on the same input must reproduce."""
        return result

    def check(self, item, result) -> None:
        """Raise CheckFailure unless the result passes every check."""
        raise NotImplementedError


class FreshRounds(Workload):
    """Round r is a fresh set of `size` inputs, `build("<seed>:<r>", size)`,
    so no op in a run repeats an input."""

    def __init__(self, fm, seed: int, size: int):
        self.fm = fm
        self.seed = seed
        self.size = size
        self.items = self.build(f"{seed}:0", size)
        self._round = (0, self.items)

    @staticmethod
    def build(seed: str, size: int) -> list:
        raise NotImplementedError

    def round_items(self, r: int) -> list:
        if self._round[0] != r:
            self._round = (r, self.build(f"{self.seed}:{r}", self.size))
        return self._round[1]

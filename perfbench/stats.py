"""Sample statistics for the benchmark driver: medians, quartiles and
failure counting over one run's samples."""

import statistics


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)`
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Tally:
    """Counts attempted and failed samples. A failed sample still
    contributes its measurements to the medians: failures are counted,
    never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems):
        """Counts one sample; `problems` lists what was wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def summarize(samples):
    """Median, quartiles and count of each metric over a list of
    `{metric: value}` samples."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        q1, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    return out

"""Price-of-equity toolkit for EQ1 allocations under binary submodular
valuations: exact solvers, closed-form bound evaluators, doubly normalised
lottery pipelines, and a brute-force oracle."""

__version__ = "0.1.0"

"""Set-up cost in a fresh interpreter: import rankbandit, load and validate inputs.

    python3 bench/setup_probe.py <src dir> config|matrices <path>...

Prints the elapsed seconds, timed from the first statement, so interpreter
start-up is not counted.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    src, kind, *paths = sys.argv[1:]
    sys.path.insert(0, src)
    import rankbandit

    for path in paths:
        if kind == "config":
            rankbandit.ExperimentConfig.from_json(path)
        else:
            import numpy as np

            stack = np.load(path)
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or \
                    not np.all(np.isfinite(stack)):
                raise ValueError(f"{path}: expected finite square matrices")
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()

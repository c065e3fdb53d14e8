"""Time one fresh-process set-up and print it in seconds.

    python3 setup_probe.py <src dir> eval < document    # import + load + build
    python3 setup_probe.py <src dir> import             # import only

Started once per measurement by the benchmark; the document arrives on
standard input before the clock starts.
"""

import sys
import time


def main() -> None:
    src, mode = sys.argv[1], sys.argv[2]
    text = sys.stdin.read() if mode == "eval" else None
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    if text is None:
        import exactframes.suites  # noqa: F401
    else:
        from exactframes import cli
        cli.build_registry(cli.load_document(text))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()

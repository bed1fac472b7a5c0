"""Suppression fixture: directives that cover no finding are errors."""

import threading


def spawn(work):
    # repro: disable=thread-no-daemon — stale: the flag is already explicit
    worker = threading.Thread(target=work, daemon=True)
    done = threading.Event()  # repro: disable=no-such-rule — unknown id
    return worker, done

"""Suppression fixture: every violation here carries a disable comment."""

import threading


def spawn(work):
    worker = threading.Thread(target=work)  # repro: disable=thread-no-daemon — fixture
    # repro: disable=atomic-file-write — fixture: suppression-binding test,
    # the justification may continue on following comment lines.
    with open("scratch.txt", "w") as handle:
        handle.write("x")
    return worker

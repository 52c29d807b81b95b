# staticcheck: fixture
"""SAF001 true positives: Interrupt re-raised on only some paths."""

from repro.sim.core import Interrupt


def conditional_swallow(env, job):
    try:
        yield env.timeout(10.0)
    except Interrupt:  # <- SAF001
        if job.finished:
            return
        raise


def raise_only_in_one_branch(env, job, log):
    try:
        yield env.timeout(10.0)
    except Interrupt:  # <- SAF001
        if job.retryable:
            raise
        log.append("giving up")


def swallowed_entirely(env, log):
    try:
        yield env.timeout(10.0)
    except Interrupt:  # <- SAF001
        log.append("crashed")


def break_out_of_the_loop(env, log):
    while True:
        try:
            yield env.timeout(10.0)
        except Interrupt:  # <- SAF001
            break
    log.append("stopped")


def continue_past_the_raise(env, jobs):
    for job in jobs:
        try:
            yield env.timeout(10.0)
        except Interrupt:  # <- SAF001
            if job.finished:
                continue
            raise

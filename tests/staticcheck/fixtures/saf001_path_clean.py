# staticcheck: fixture
"""SAF001 negatives: every path through the handler re-raises."""

from repro.sim.core import Interrupt


def cleanup_then_reraise(env, resources):
    try:
        yield env.timeout(10.0)
    except Interrupt:
        for resource in resources:
            resource.close()
        raise


def reraise_on_every_branch(env, job):
    try:
        yield env.timeout(10.0)
    except Interrupt:
        if job.finished:
            job.seal()
            raise
        job.abort()
        raise


def reraise_from_both_arms_of_a_final_if(env, job, resources):
    try:
        yield env.timeout(10.0)
    except Interrupt:
        for resource in resources:
            if resource.closed:
                break
            resource.close()
        if job.finished:
            job.seal()
            if job.retryable:
                job.requeue()
                raise
            else:
                raise
        else:
            job.abort()
            raise

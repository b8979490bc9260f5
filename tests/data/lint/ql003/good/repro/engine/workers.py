"""QL003 good fixture: the worker takes its fault plan as an argument."""


def _worker(task, plan, attempt):
    if plan is not None:
        plan.inject(task, attempt)
    return task


def run(tasks, execute_hardened):
    return execute_hardened(tasks, worker=_worker)

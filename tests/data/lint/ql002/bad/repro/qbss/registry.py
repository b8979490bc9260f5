"""QL002 bad fixture: registered runners with positional extras/defaults
and a ``*args`` catch-all."""


def crummy(qi, extra, alpha=2.0):
    return (qi, extra, alpha)


def sloppy(qi, *args, alpha=2.0):
    return (qi, args, alpha)


ALGORITHMS = {"crummy": crummy, "sloppy": sloppy}

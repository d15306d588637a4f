"""Time one cold set-up in a fresh interpreter: import the program, then
load, parse and validate the named catalog documents. Prints the seconds,
scaled to the host's quiet speed (hostspeed.py).

    python3 bench/setup_probe.py golden bc_x3_plus_x_minus_1
"""

import sys

import hostspeed

hostspeed.sample()      # warm the kernel up before it measures anything
with hostspeed.ScaledClock(ticks=False) as clock:
    sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/src")

    from finitype import catalog, cli, ifsmodel

    for name in sys.argv[1:]:
        ifsmodel.validate(cli.parse_document(catalog.load_document(name)))
print(clock.wall)

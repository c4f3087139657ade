"""sixpoint's exact, stability, strata and hypersurfaces modules, copied
unchanged from the commit that defined the benchmark.

The benchmark runs this copy as its speed reference (see reference.py).
It must stay as it is when src/sixpoint changes: a change to the program
has to move the program's times and not the reference's.
"""

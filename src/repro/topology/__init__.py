"""Paper topologies: figure 1 (restricted) and figure 6 (tertiary tree).

Import from the modules: :mod:`.cases`, :mod:`.tree`, :mod:`.restricted`
and :mod:`.dumbbell`.  This package root imports nothing, and each
``build_*`` imports the network only when it builds one.
"""

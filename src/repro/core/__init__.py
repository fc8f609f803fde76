"""The paper's contribution: context patterns, switch elements, the
reconfigurable context memory, decoder synthesis, MCMG-LUTs, adaptive
logic blocks, the full device, and the area model.

Import each name from the module that defines it: loading the package
loads none of them, so a request never pays for the paper-figure
circuit models it does not run."""

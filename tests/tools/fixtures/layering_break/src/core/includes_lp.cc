// A second optimizer: the reference LP solvers are for tests and benches.
#include "lp/schedule_lp.h"

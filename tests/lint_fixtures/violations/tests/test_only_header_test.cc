// Fixture: the only includer of src/test_only_header.h.
#include "src/test_only_header.h"

int main() { return fixture::Eight() == 8 ? 0 : 1; }

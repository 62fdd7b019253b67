// Fixture: a consumer outside tests/, so src/clean.h is not test-only.
#include "src/clean.h"

int main() { return fixture::Add(1, 2) == 3 ? 0 : 1; }

//===- obs/Telemetry.cpp - Observability switches -------------------------===//

#include "obs/Telemetry.h"

using namespace sbi;

std::atomic<unsigned> Telemetry::Switches{0};

// Binary checkpointing of model parameters (and BatchNorm running stats).
//
// Format: the v2 checksummed artifact container (io/artifact.hpp,
// schema apt-checkpoint/2) with one section per record — (name, shape,
// float data) keyed by parameter name. Loading matches by name and
// shape, so a checkpoint can be restored into a freshly constructed
// model of the same architecture — including restoring an
// fp32-pretrained model before quantised fine-tuning (the
// edge-personalisation workflow).
//
// Saves are crash-safe (write-to-temp → fsync → atomic rename: the
// final path never holds a torn checkpoint) and loads validate the
// container, every checksum, and every record against the model before
// touching a single parameter — a failed load leaves the model exactly
// as it was. Both return a typed apt::Status (DESIGN.md §16 taxonomy).
#pragma once

#include <string>

#include "base/status.hpp"
#include "nn/layer.hpp"

namespace apt::io {

/// Saves every parameter (by name) and every BatchNorm's running stats.
Status try_save_checkpoint(nn::Layer& model, const std::string& path);

/// Restores parameters and running stats by name. Typed failures:
/// kIoError / kTruncated / kCorrupt / kVersionMismatch for a bad file,
/// kInvalidArgument when a record the model needs is missing or has the
/// wrong shape. On failure the model is untouched. On success,
/// representations attached to parameters are refit (value changed
/// under them).
Status try_load_checkpoint(nn::Layer& model, const std::string& path);

}  // namespace apt::io

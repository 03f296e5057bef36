// Package template (paper §3.1): "Our package template abstraction encodes
// package specifications in a familiar tabular format. The central
// component of the template is a sample package, presented as a scrollable
// table. Additional components include representations of base and global
// constraints, optimization objectives, and suggestions for additional
// package refinements."
//
// RenderPackageTemplate produces the text equivalent of that screen: the
// sample package as a table, each constraint with its natural-language
// description, and the objective.

#ifndef PB_UI_TEMPLATE_H_
#define PB_UI_TEMPLATE_H_

#include <string>

#include "common/status.h"
#include "core/package.h"

namespace pb::ui {

struct TemplateOptions {
  bool show_paql = true;
};

/// Renders the package-template view for a query and its current sample
/// (the sample table shows its first 12 rows).
Result<std::string> RenderPackageTemplate(const paql::AnalyzedQuery& aq,
                                          const core::Package& sample,
                                          const TemplateOptions& options = {});

}  // namespace pb::ui

#endif  // PB_UI_TEMPLATE_H_
